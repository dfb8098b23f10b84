#include "core/solver.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "mec/resources.hpp"
#include "sim/feasibility.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

TEST(Solver, ServesEveryoneWhenResourcesAbound) {
  const Scenario s = test::two_bs_scenario(4);
  const DmraResult r = solve_dmra(s);
  EXPECT_EQ(r.allocation.num_served(), 4u);
  EXPECT_TRUE(check_feasibility(s, r.allocation).ok);
}

TEST(Solver, PrefersOwnSpBsAtEqualDistance) {
  test::MiniScenario ms;
  const SpId sp0 = ms.add_sp();
  const SpId sp1 = ms.add_sp();
  ms.add_bs(sp0, {0, 0});
  ms.add_bs(sp1, {100, 0});
  ms.add_ue(sp0, {50, 0}, ServiceId{0});  // exactly between the two BSs
  const Scenario s = ms.build();
  const DmraResult r = solve_dmra(s);
  EXPECT_EQ(r.allocation.bs_of(UeId{0}), (BsId{0}));  // same SP is cheaper
}

TEST(Solver, PrefersNearBsWhenDistanceDominatesIota) {
  test::MiniScenario ms({.iota = 1.1});
  const SpId sp0 = ms.add_sp();
  const SpId sp1 = ms.add_sp();
  ms.add_bs(sp0, {0, 0});
  ms.add_bs(sp1, {300, 0});
  // 280 m from its own BS, 20 m from the rival's: with ι = 1.1 the rival
  // is cheaper (0.1·b markup < 0.78·b distance saving).
  ms.add_ue(sp0, {280, 0}, ServiceId{0});
  const Scenario s = ms.build();
  const DmraResult r = solve_dmra(s, {.rho = 0.0});
  EXPECT_EQ(r.allocation.bs_of(UeId{0}), (BsId{1}));
}

TEST(Solver, UncoveredUeGoesToCloud) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {2000, 2000}, ServiceId{0});
  const Scenario s = ms.build();
  const DmraResult r = solve_dmra(s);
  EXPECT_TRUE(r.allocation.is_cloud(UeId{0}));
  EXPECT_EQ(r.rounds, 0u);  // no proposals ever sent
}

TEST(Solver, OverloadedServiceOverflowsToCloud) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, /*cru=*/10);  // room for two 4-CRU tasks, not three
  ms.add_ue(sp, {10, 0}, ServiceId{0}, 4);
  ms.add_ue(sp, {20, 0}, ServiceId{0}, 4);
  ms.add_ue(sp, {30, 0}, ServiceId{0}, 4);
  const Scenario s = ms.build();
  const DmraResult r = solve_dmra(s);
  EXPECT_EQ(r.allocation.num_served(), 2u);
  EXPECT_EQ(r.allocation.num_cloud(), 1u);
  EXPECT_TRUE(check_feasibility(s, r.allocation).ok);
}

TEST(Solver, ContestedSlotGoesToSameSpUe) {
  test::MiniScenario ms;
  const SpId sp0 = ms.add_sp();
  const SpId sp1 = ms.add_sp();
  ms.add_bs(sp0, {0, 0}, /*cru=*/4);  // exactly one task fits
  ms.add_ue(sp1, {10, 0}, ServiceId{0}, 4);  // cross-SP, closer
  ms.add_ue(sp0, {50, 0}, ServiceId{0}, 4);  // same-SP, farther
  const Scenario s = ms.build();
  const DmraResult r = solve_dmra(s);
  EXPECT_EQ(r.allocation.bs_of(UeId{1}), (BsId{0}));
  EXPECT_TRUE(r.allocation.is_cloud(UeId{0}));
}

TEST(Solver, Deterministic) {
  ScenarioConfig cfg;
  cfg.num_ues = 300;
  const Scenario s = generate_scenario(cfg, 17);
  const DmraResult a = solve_dmra(s);
  const DmraResult b = solve_dmra(s);
  EXPECT_EQ(a.allocation, b.allocation);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.proposals_sent, b.proposals_sent);
}

TEST(Solver, AccountingIsConsistent) {
  ScenarioConfig cfg;
  cfg.num_ues = 400;
  const Scenario s = generate_scenario(cfg, 5);
  const DmraResult r = solve_dmra(s);
  EXPECT_GE(r.proposals_sent, r.allocation.num_served());
  EXPECT_EQ(r.rejections, r.proposals_sent - r.allocation.num_served());
  EXPECT_GE(r.rounds, 1u);
  EXPECT_LE(r.rounds, s.num_ues());
}

// Property sweep: feasibility + termination + maximality-style invariants
// on generated scenarios of several sizes and seeds.
class SolverProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SolverProperty, FeasibleTerminatingAndLocallyMaximal) {
  const auto [ues, seed] = GetParam();
  ScenarioConfig cfg;
  cfg.num_ues = static_cast<std::size_t>(ues);
  const Scenario s = generate_scenario(cfg, static_cast<std::uint64_t>(seed));
  const DmraResult r = solve_dmra(s);

  const FeasibilityReport report = check_feasibility(s, r.allocation);
  EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations.front());

  // Local maximality: no cloud-forwarded UE could still be served by a BS
  // with leftover resources (DMRA never strands a UE while an option
  // remains — B_u only empties when every candidate is exhausted).
  ResourceState final_state(s);
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    if (const auto bs = r.allocation.bs_of(u)) final_state.commit(u, *bs, s.candidate_rrbs(u, *bs));
  }
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    if (!r.allocation.is_cloud(u)) continue;
    for (BsId i : s.candidates(u))
      EXPECT_FALSE(final_state.can_serve(u, i))
          << "ue " << u.value << " stranded while bs " << i.value << " had room";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SolverProperty,
                         ::testing::Combine(::testing::Values(50, 200, 600, 1100),
                                            ::testing::Values(1, 2, 3)));

// Property: rho sweep keeps feasibility and the ablation switches all run.
class SolverConfigProperty : public ::testing::TestWithParam<double> {};

TEST_P(SolverConfigProperty, FeasibleUnderAnyRho) {
  ScenarioConfig cfg;
  cfg.num_ues = 500;
  const Scenario s = generate_scenario(cfg, 23);
  DmraConfig dc;
  dc.rho = GetParam();
  const DmraResult r = solve_dmra(s, dc);
  EXPECT_TRUE(check_feasibility(s, r.allocation).ok);
  EXPECT_GT(r.allocation.num_served(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Rhos, SolverConfigProperty,
                         ::testing::Values(0.0, 10.0, 100.0, 1000.0, 10000.0));

TEST(Solver, AblationSwitchesStillFeasible) {
  ScenarioConfig cfg;
  cfg.num_ues = 400;
  const Scenario s = generate_scenario(cfg, 29);
  for (const DmraConfig dc : {DmraConfig{.prefer_same_sp = false},
                              DmraConfig{.use_coverage_count = false},
                              DmraConfig{.use_footprint = false}}) {
    const DmraResult r = solve_dmra(s, dc);
    EXPECT_TRUE(check_feasibility(s, r.allocation).ok);
  }
}

TEST(Solver, SameSpPreferenceLiftsSameSpRatio) {
  ScenarioConfig cfg;
  cfg.num_ues = 800;
  const Scenario s = generate_scenario(cfg, 31);
  const DmraResult with = solve_dmra(s, DmraConfig{});
  const DmraResult without = solve_dmra(s, DmraConfig{.prefer_same_sp = false});
  EXPECT_GT(same_sp_ratio(s, with.allocation), same_sp_ratio(s, without.allocation));
}

}  // namespace
}  // namespace dmra
