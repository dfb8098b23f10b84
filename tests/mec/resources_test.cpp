#include "mec/resources.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "util/require.hpp"

namespace dmra {
namespace {

TEST(Resources, InitializedFromScenarioCapacities) {
  const Scenario s = test::two_bs_scenario();
  const ResourceState rs(s);
  for (std::size_t b = 0; b < s.num_bss(); ++b) {
    const BsId i{static_cast<std::uint32_t>(b)};
    EXPECT_EQ(rs.remaining_rrbs(i), s.bs(i).num_rrbs);
    for (std::size_t j = 0; j < s.num_services(); ++j) {
      const ServiceId svc{static_cast<std::uint32_t>(j)};
      EXPECT_EQ(rs.remaining_crus(i, svc), s.bs(i).cru_capacity[j]);
    }
  }
}

TEST(Resources, CommitDeductsBothResources) {
  const Scenario s = test::two_bs_scenario();
  ResourceState rs(s);
  const UeId u{0};
  const BsId i{0};
  const auto crus_before = rs.remaining_crus(i, s.ue(u).service);
  const auto rrbs_before = rs.remaining_rrbs(i);
  rs.commit(u, i, s.candidate_rrbs(u, i));
  EXPECT_EQ(rs.remaining_crus(i, s.ue(u).service), crus_before - s.ue(u).cru_demand);
  EXPECT_EQ(rs.remaining_rrbs(i), rrbs_before - s.link(u, i).n_rrbs);
}

TEST(Resources, ReleaseInvertsCommit) {
  const Scenario s = test::two_bs_scenario();
  ResourceState rs(s);
  const UeId u{1};
  const BsId i{1};
  rs.commit(u, i, s.candidate_rrbs(u, i));
  rs.release(u, i, s.candidate_rrbs(u, i));
  EXPECT_EQ(rs.remaining_crus(i, s.ue(u).service), s.bs(i).cru_capacity[s.ue(u).service.idx()]);
  EXPECT_EQ(rs.remaining_rrbs(i), s.bs(i).num_rrbs);
}

TEST(Resources, UnpairedReleaseIsContractViolation) {
  const Scenario s = test::two_bs_scenario();
  ResourceState rs(s);
  EXPECT_THROW(rs.release(UeId{0}, BsId{0}, s.candidate_rrbs(UeId{0}, BsId{0})), ContractViolation);
}

TEST(Resources, CanServeFalseWhenCrusExhausted) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, /*cru_per_service=*/7);
  ms.add_ue(sp, {10, 0}, ServiceId{0}, 4);
  ms.add_ue(sp, {20, 0}, ServiceId{0}, 4);
  const Scenario s = ms.build();
  ResourceState rs(s);
  EXPECT_TRUE(rs.can_serve(UeId{0}, BsId{0}));
  rs.commit(UeId{0}, BsId{0}, s.candidate_rrbs(UeId{0}, BsId{0}));  // 3 CRUs left < 4 demanded
  EXPECT_FALSE(rs.can_serve(UeId{1}, BsId{0}));
}

TEST(Resources, CanServeFalseWhenRrbsExhausted) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, 100, /*rrbs=*/2);
  ms.add_ue(sp, {10, 0}, ServiceId{0}, 4, 4e6);  // needs 1 RRB up close
  ms.add_ue(sp, {450, 0}, ServiceId{0}, 4, 6e6);  // needs 2 RRBs far out
  const Scenario s = ms.build();
  ResourceState rs(s);
  ASSERT_TRUE(rs.can_serve(UeId{1}, BsId{0}));
  rs.commit(UeId{0}, BsId{0}, s.candidate_rrbs(UeId{0}, BsId{0}));
  EXPECT_FALSE(rs.can_serve(UeId{1}, BsId{0}));  // 1 RRB left < 2 needed
}

TEST(Resources, CanServeFalseOutOfCoverage) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {800, 0}, ServiceId{0});
  const Scenario s = ms.build();
  const ResourceState rs(s);
  EXPECT_FALSE(rs.can_serve(UeId{0}, BsId{0}));
}

TEST(Resources, CommitWithoutCapacityIsContractViolation) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, /*cru_per_service=*/3);
  ms.add_ue(sp, {10, 0}, ServiceId{0}, 4);
  const Scenario s = ms.build();
  ResourceState rs(s);
  EXPECT_THROW(rs.commit(UeId{0}, BsId{0}, s.link(UeId{0}, BsId{0}).n_rrbs),
               ContractViolation);
}

TEST(Resources, PreferenceDenominatorSumsServiceCrusAndRrbs) {
  const Scenario s = test::two_bs_scenario();
  ResourceState rs(s);
  const BsId i{0};
  const ServiceId j{0};
  EXPECT_EQ(rs.remaining_for_preference(i, j),
            rs.remaining_crus(i, j) + rs.remaining_rrbs(i));
}

}  // namespace
}  // namespace dmra
