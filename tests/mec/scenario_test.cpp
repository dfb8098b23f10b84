#include "mec/scenario.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "../test_util.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

using test::MiniScenario;

TEST(Scenario, LinkStatsMatchManualComputation) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0.0, 0.0});
  ms.add_ue(sp, {300.0, 400.0}, ServiceId{0}, 4, 4e6);
  const Scenario s = ms.build();

  const LinkStats& l = s.link(UeId{0}, BsId{0});
  EXPECT_DOUBLE_EQ(l.distance_m, 500.0);
  EXPECT_TRUE(l.in_coverage);  // exactly at the default 500 m radius
  const double expected_sinr = sinr(s.channel(), 500.0, s.ofdma().rrb_bandwidth_hz);
  EXPECT_DOUBLE_EQ(l.sinr, expected_sinr);
  const double expected_rate = rrb_rate_bps(s.ofdma().rrb_bandwidth_hz, expected_sinr);
  EXPECT_DOUBLE_EQ(l.rrb_rate_bps, expected_rate);
  EXPECT_EQ(l.n_rrbs, rrbs_needed(4e6, expected_rate));
}

TEST(Scenario, OutOfCoverageLinkHasNoRrbs) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0.0, 0.0});
  ms.add_ue(sp, {501.0, 0.0}, ServiceId{0});
  const Scenario s = ms.build();
  EXPECT_FALSE(s.link(UeId{0}, BsId{0}).in_coverage);
  EXPECT_EQ(s.link(UeId{0}, BsId{0}).n_rrbs, 0u);
  EXPECT_TRUE(s.candidates(UeId{0}).empty());
}

TEST(Scenario, CandidatesRequireHostedService) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs_hosting(sp, {0.0, 0.0}, {ServiceId{0}});    // hosts only service 0
  ms.add_bs_hosting(sp, {100.0, 0.0}, {ServiceId{1}});  // hosts only service 1
  ms.add_ue(sp, {50.0, 0.0}, ServiceId{1});
  const Scenario s = ms.build();
  const auto cands = s.candidates(UeId{0});
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0], (BsId{1}));
}

TEST(Scenario, CandidatesRequireCapacityForTheDemand) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0.0, 0.0}, /*cru_per_service=*/3);
  ms.add_ue(sp, {10.0, 0.0}, ServiceId{0}, /*cru_demand=*/4);
  const Scenario s = ms.build();
  EXPECT_TRUE(s.candidates(UeId{0}).empty());  // 4 CRUs never fit in 3
}

TEST(Scenario, CandidatesRequireRadioFeasibility) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0.0, 0.0}, 100, /*rrbs=*/1);
  // 6 Mbit/s at 450 m needs 2 RRBs > budget of 1.
  ms.add_ue(sp, {450.0, 0.0}, ServiceId{0}, 4, 6e6);
  // A demand no BS can carry saturates n(u,i) and is never a candidate.
  ms.add_ue(sp, {10.0, 0.0}, ServiceId{0}, 4, 1e300);
  const Scenario s = ms.build();
  EXPECT_TRUE(s.candidates(UeId{0}).empty());
  EXPECT_TRUE(s.candidates(UeId{1}).empty());
  EXPECT_EQ(s.link(UeId{1}, BsId{0}).n_rrbs, kUnservableRrbs);
}

TEST(Scenario, SameSpAndPricing) {
  const Scenario s = test::two_bs_scenario(2);
  EXPECT_TRUE(s.same_sp(UeId{0}, BsId{0}));   // UE 0 → SP0, BS 0 → SP0
  EXPECT_FALSE(s.same_sp(UeId{0}, BsId{1}));
  const double d = s.link(UeId{0}, BsId{0}).distance_m;
  EXPECT_DOUBLE_EQ(s.price(UeId{0}, BsId{0}), cru_price(s.pricing(), d, true));
  EXPECT_DOUBLE_EQ(s.pair_profit(UeId{0}, BsId{0}),
                   4.0 * cru_margin(s.pricing(), d, true));
}

TEST(Scenario, CoverageCountIsCandidateCount) {
  const Scenario s = test::two_bs_scenario(4);
  for (std::size_t u = 0; u < s.num_ues(); ++u) {
    const UeId id{static_cast<std::uint32_t>(u)};
    EXPECT_EQ(s.coverage_count(id), s.candidates(id).size());
  }
}

TEST(ScenarioValidation, RejectsEmptyEntitySets) {
  ScenarioData d;
  d.num_services = 1;
  EXPECT_THROW(Scenario(std::move(d)), ContractViolation);
}

TEST(ScenarioValidation, RejectsNonContiguousIds) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {0, 0}, ServiceId{0});
  ms.data().ues[0].id = UeId{5};
  EXPECT_THROW(ms.build(), ContractViolation);
}

TEST(ScenarioValidation, RejectsUnknownSpReference) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {0, 0}, ServiceId{0});
  ms.data().bss[0].sp = SpId{9};
  EXPECT_THROW(ms.build(), ContractViolation);
}

TEST(ScenarioValidation, RejectsUnknownServiceRequest) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {0, 0}, ServiceId{7});
  EXPECT_THROW(ms.build(), ContractViolation);
}

TEST(ScenarioValidation, RejectsWrongCapacityVectorLength) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {0, 0}, ServiceId{0});
  ms.data().bss[0].cru_capacity.resize(1);  // num_services is 2
  EXPECT_THROW(ms.build(), ContractViolation);
}

TEST(ScenarioValidation, RejectsZeroCruDemand) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {0, 0}, ServiceId{0}, /*cru_demand=*/0);
  EXPECT_THROW(ms.build(), ContractViolation);
}

TEST(ScenarioValidation, RejectsNonFinitePositionsAndRrbCounts) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const Point bad : {Point{inf, 0.0}, Point{0.0, -inf}, Point{std::nan(""), 0.0}}) {
    for (const bool on_bs : {true, false}) {
      MiniScenario ms;
      const SpId sp = ms.add_sp();
      ms.add_bs(sp, on_bs ? bad : Point{0, 0});
      ms.add_ue(sp, on_bs ? Point{0, 0} : bad, ServiceId{0});
      EXPECT_THROW(ms.build(), ContractViolation);
    }
  }
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, 100, kUnservableRrbs);
  EXPECT_THROW(ms.build(), ContractViolation);
}

TEST(Scenario, ZeroRrbBsIsInertNotInvalid) {
  // Radio-exhausted BSs occur in the residual scenarios a serving
  // admission rule sees; they must validate but can never be candidates.
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, 100, /*rrbs=*/0);
  ms.add_ue(sp, {10, 0}, ServiceId{0});
  const Scenario s = ms.build();
  EXPECT_TRUE(s.candidates(UeId{0}).empty());
}

TEST(ScenarioValidation, RejectsPricingViolatingEq16) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {0, 0}, ServiceId{0});
  ms.data().pricing.m_k = 2.0;  // cannot cover cross-SP price at 500 m
  EXPECT_THROW(ms.build(), ContractViolation);
}

// ---- sparse vs dense link storage ------------------------------------------

/// Bitwise equality — the two strategies must agree to the last ulp, since
/// algorithms branch on exact comparisons of these values.
bool bit_equal(const LinkStats& a, const LinkStats& b) {
  return std::memcmp(&a.distance_m, &b.distance_m, sizeof a.distance_m) == 0 &&
         std::memcmp(&a.sinr, &b.sinr, sizeof a.sinr) == 0 &&
         std::memcmp(&a.rrb_rate_bps, &b.rrb_rate_bps, sizeof a.rrb_rate_bps) == 0 &&
         a.n_rrbs == b.n_rrbs && a.in_coverage == b.in_coverage;
}

void expect_equivalent(const Scenario& dense, const Scenario& sparse,
                       const std::string& label) {
  ASSERT_EQ(dense.num_ues(), sparse.num_ues()) << label;
  ASSERT_EQ(dense.num_bss(), sparse.num_bss()) << label;
  for (std::size_t ui = 0; ui < dense.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    ASSERT_EQ(dense.coverage_count(u), sparse.coverage_count(u)) << label;
    const auto dc = dense.candidates(u);
    const auto sc = sparse.candidates(u);
    ASSERT_TRUE(std::equal(dc.begin(), dc.end(), sc.begin(), sc.end())) << label;
    for (std::size_t bi = 0; bi < dense.num_bss(); ++bi) {
      const BsId b{static_cast<std::uint32_t>(bi)};
      ASSERT_TRUE(bit_equal(dense.link(u, b), sparse.link(u, b)))
          << label << " ue=" << ui << " bs=" << bi;
    }
  }
}

TEST(ScenarioLinkBuild, SparseMatchesDenseAcrossRandomConfigs) {
  // Property test: 25 random deployments, each built with both storage
  // strategies from the same (config, seed), compared over every pair.
  Rng rng("link-build-property", 7);
  for (int trial = 0; trial < 25; ++trial) {
    ScenarioConfig cfg;
    cfg.num_sps = 1 + static_cast<std::size_t>(rng.uniform_int(0, 4));
    cfg.bss_per_sp = 1 + static_cast<std::size_t>(rng.uniform_int(0, 5));
    cfg.num_ues = 10 + static_cast<std::size_t>(rng.uniform_int(0, 190));
    cfg.coverage_radius_m = 150.0 + 150.0 * rng.uniform_int(0, 3);
    cfg.area_side_m = 600.0 + 300.0 * rng.uniform_int(0, 4);
    cfg.placement = rng.uniform_int(0, 1) == 0 ? PlacementMethod::kRegularGrid
                                               : PlacementMethod::kRandom;
    const std::uint64_t seed = static_cast<std::uint64_t>(trial) + 1;
    cfg.link_build = LinkBuild::kDense;
    const Scenario dense = generate_scenario(cfg, seed);
    cfg.link_build = LinkBuild::kSparse;
    const Scenario sparse = generate_scenario(cfg, seed);
    expect_equivalent(dense, sparse, "trial " + std::to_string(trial));
  }
}

TEST(ScenarioLinkBuild, FarFinitePositionsStayInTheSparseGrid) {
  // The sparse build hashes positions into coverage-radius cells; a UE
  // 1e300 m out must land in a clamped edge cell, not an out-of-range
  // integer, and the UEs in range must keep their candidates.
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0.0, 0.0});
  ms.add_ue(sp, {1e300, 0.0}, ServiceId{0});
  ms.add_ue(sp, {-1e300, 1e300}, ServiceId{0});
  ms.add_ue(sp, {10.0, 0.0}, ServiceId{0});
  ms.data().link_build = LinkBuild::kSparse;
  const Scenario s = ms.build();
  EXPECT_TRUE(s.candidates(UeId{0}).empty());
  EXPECT_TRUE(s.candidates(UeId{1}).empty());
  ASSERT_EQ(s.candidates(UeId{2}).size(), 1u);
  EXPECT_FALSE(s.link(UeId{0}, BsId{0}).in_coverage);
}

TEST(ScenarioLinkBuild, AllOutOfCoverageDegenerateScenario) {
  // Degenerate case: a radius so small no BS covers any UE — every link
  // must come back as the canonical zero stats under both strategies.
  ScenarioConfig cfg;
  cfg.num_ues = 40;
  cfg.coverage_radius_m = 1e-3;
  for (const LinkBuild build : {LinkBuild::kDense, LinkBuild::kSparse}) {
    cfg.link_build = build;
    const Scenario s = generate_scenario(cfg, 11);
    for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
      const UeId u{static_cast<std::uint32_t>(ui)};
      EXPECT_TRUE(s.candidates(u).empty());
      for (std::size_t bi = 0; bi < s.num_bss(); ++bi) {
        const LinkStats& l = s.link(u, BsId{static_cast<std::uint32_t>(bi)});
        EXPECT_FALSE(l.in_coverage);
        EXPECT_EQ(l.n_rrbs, 0u);
        EXPECT_EQ(l.sinr, 0.0);
        EXPECT_EQ(l.rrb_rate_bps, 0.0);
      }
    }
  }
}

}  // namespace
}  // namespace dmra
