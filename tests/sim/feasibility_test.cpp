#include "sim/feasibility.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "../test_util.hpp"
#include "mec/resources.hpp"
#include "util/require.hpp"

namespace dmra {
namespace {

TEST(Feasibility, CleanAllocationPasses) {
  const Scenario s = test::two_bs_scenario(4);
  Allocation a(4);
  a.assign(UeId{0}, BsId{0});
  a.assign(UeId{1}, BsId{1});
  const FeasibilityReport r = check_feasibility(s, a);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.violations.empty());
}

TEST(Feasibility, AllCloudIsTriviallyFeasible) {
  const Scenario s = test::two_bs_scenario(4);
  EXPECT_TRUE(check_feasibility(s, Allocation(4)).ok);
}

TEST(Feasibility, DetectsCruOvercommit) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, /*cru=*/6);
  ms.add_ue(sp, {10, 0}, ServiceId{0}, 4);
  ms.add_ue(sp, {20, 0}, ServiceId{0}, 4);
  const Scenario s = ms.build();
  Allocation a(2);
  a.assign(UeId{0}, BsId{0});
  a.assign(UeId{1}, BsId{0});  // 8 CRUs demanded, 6 available
  const FeasibilityReport r = check_feasibility(s, a);
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_NE(r.violations.front().find("Eq. 12"), std::string::npos);
}

TEST(Feasibility, DetectsRrbOvercommit) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, 100, /*rrbs=*/1);
  ms.add_ue(sp, {400, 0}, ServiceId{0}, 4, 2e6);
  ms.add_ue(sp, {410, 0}, ServiceId{0}, 4, 2e6);
  const Scenario s = ms.build();
  Allocation a(2);
  a.assign(UeId{0}, BsId{0});
  a.assign(UeId{1}, BsId{0});
  const FeasibilityReport r = check_feasibility(s, a);
  EXPECT_FALSE(r.ok);
  bool found = false;
  for (const auto& v : r.violations)
    if (v.find("Eq. 14") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

TEST(Feasibility, DetectsUnhostedService) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs_hosting(sp, {0, 0}, {ServiceId{0}});
  ms.add_ue(sp, {10, 0}, ServiceId{1});
  const Scenario s = ms.build();
  Allocation a(1);
  a.assign(UeId{0}, BsId{0});
  const FeasibilityReport r = check_feasibility(s, a);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violations.front().find("Eq. 13"), std::string::npos);
}

TEST(Feasibility, DetectsOutOfCoverageAssignment) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {900, 0}, ServiceId{0});
  const Scenario s = ms.build();
  Allocation a(1);
  a.assign(UeId{0}, BsId{0});
  const FeasibilityReport r = check_feasibility(s, a);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violations.front().find("coverage"), std::string::npos);
}

TEST(Feasibility, ReportsMultipleViolationsAtOnce) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs_hosting(sp, {0, 0}, {ServiceId{0}}, /*cru=*/3);
  ms.add_ue(sp, {10, 0}, ServiceId{0}, 4);  // CRU overcommit
  ms.add_ue(sp, {20, 0}, ServiceId{1}, 4);  // unhosted service
  const Scenario s = ms.build();
  Allocation a(2);
  a.assign(UeId{0}, BsId{0});
  a.assign(UeId{1}, BsId{0});
  const FeasibilityReport r = check_feasibility(s, a);
  EXPECT_FALSE(r.ok);
  EXPECT_GE(r.violations.size(), 2u);
}

TEST(Feasibility, SizeMismatchIsContractViolation) {
  const Scenario s = test::two_bs_scenario(4);
  EXPECT_THROW(check_feasibility(s, Allocation(3)), ContractViolation);
}

TEST(Feasibility, ViolationsAreSortedByBsThenUe) {
  // Two BSs, each with an out-of-coverage assignment, listed UE-reversed:
  // the report must still come out BS 0 before BS 1, and within a BS the
  // lower UE id first, with the BS-aggregate line after the per-UE lines.
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, /*cru=*/3, /*rrbs=*/55);
  ms.add_bs(sp, {200, 0}, /*cru=*/100, /*rrbs=*/55);
  ms.add_ue(sp, {900, 0}, ServiceId{0}, 4);   // ue 0 → bs 1: out of coverage
  ms.add_ue(sp, {1000, 0}, ServiceId{0}, 4);  // ue 1 → bs 0: coverage + CRU
  ms.add_ue(sp, {950, 0}, ServiceId{0}, 4);   // ue 2 → bs 0: coverage + CRU
  const Scenario s = ms.build();
  Allocation a(3);
  a.assign(UeId{0}, BsId{1});
  a.assign(UeId{2}, BsId{0});
  a.assign(UeId{1}, BsId{0});
  const FeasibilityReport r = check_feasibility(s, a);
  ASSERT_FALSE(r.ok);
  // Expected order: bs0/ue1 lines, bs0/ue2 lines, bs0 aggregate (Eq. 12),
  // then everything about bs1/ue0.
  ASSERT_GE(r.violations.size(), 4u);
  auto first_index_of = [&](const std::string& needle) {
    for (std::size_t n = 0; n < r.violations.size(); ++n)
      if (r.violations[n].find(needle) != std::string::npos) return n;
    ADD_FAILURE() << "no violation mentions: " << needle;
    return r.violations.size();
  };
  EXPECT_LT(first_index_of("bs 0 ue 1"), first_index_of("bs 0 ue 2"));
  EXPECT_LT(first_index_of("bs 0 ue 2"), first_index_of("Eq. 12"));
  EXPECT_LT(first_index_of("Eq. 12"), first_index_of("bs 1 ue 0"));

  // Deterministic: a second audit renders the identical report.
  const FeasibilityReport again = check_feasibility(s, a);
  EXPECT_EQ(r.violations, again.violations);
}

TEST(Feasibility, StreamOperatorRendersReport) {
  const Scenario s = test::two_bs_scenario(4);
  std::ostringstream clean;
  clean << check_feasibility(s, Allocation(4));
  EXPECT_EQ(clean.str(), "feasible");

  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {900, 0}, ServiceId{0});
  const Scenario far = ms.build();
  Allocation a(1);
  a.assign(UeId{0}, BsId{0});
  const FeasibilityReport r = check_feasibility(far, a);
  std::ostringstream os;
  os << r;
  EXPECT_NE(os.str().find("coverage"), std::string::npos);
}

TEST(Feasibility, LedgerConsistencyAcceptsTruthfulLedger) {
  const Scenario s = test::two_bs_scenario(4);
  ResourceState state(s);
  Allocation a(4);
  state.commit(UeId{0}, BsId{0}, s.candidate_rrbs(UeId{0}, BsId{0}));
  a.assign(UeId{0}, BsId{0});
  std::vector<std::uint32_t> crus(s.num_bss() * s.num_services());
  std::vector<std::uint32_t> rrbs(s.num_bss());
  for (std::size_t i = 0; i < s.num_bss(); ++i) {
    const BsId bs{static_cast<std::uint32_t>(i)};
    rrbs[i] = state.remaining_rrbs(bs);
    for (std::size_t j = 0; j < s.num_services(); ++j)
      crus[i * s.num_services() + j] =
          state.remaining_crus(bs, ServiceId{static_cast<std::uint32_t>(j)});
  }
  EXPECT_TRUE(check_ledger_consistency(s, a, crus, rrbs).ok);

  // Drift one RRB and it must be called out, on the right BS.
  rrbs[0] += 1;
  const FeasibilityReport drifted = check_ledger_consistency(s, a, crus, rrbs);
  ASSERT_FALSE(drifted.ok);
  EXPECT_NE(drifted.violations.front().find("bs 0"), std::string::npos);
  EXPECT_NE(drifted.violations.front().find("RRB"), std::string::npos);
}

}  // namespace
}  // namespace dmra
