#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/dmra_allocator.hpp"
#include "core/solver.hpp"
#include "mec/resources.hpp"
#include "sim/feasibility.hpp"
#include "util/require.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

std::vector<UeId> all_ues(const Scenario& s) {
  std::vector<UeId> out(s.num_ues());
  for (std::size_t ui = 0; ui < out.size(); ++ui) out[ui] = UeId{static_cast<std::uint32_t>(ui)};
  return out;
}

TEST(PartialSolver, PreMatchedUesNeverPropose) {
  ScenarioConfig cfg;
  cfg.num_ues = 100;
  const Scenario s = generate_scenario(cfg, 3);

  // Pre-assign the first 20 UEs wherever DMRA would put them.
  const Allocation full = solve_dmra(s).allocation;
  ResourceState state(s);
  Allocation alloc(s.num_ues());
  std::vector<UeId> proposers;
  std::size_t premarked = 0;
  for (std::uint32_t ui = 0; ui < s.num_ues(); ++ui) {
    const UeId u{ui};
    const auto bs = full.bs_of(u);
    if (ui < 20 && bs) {
      state.commit(u, *bs, s.candidate_rrbs(u, *bs));
      alloc.assign(u, *bs);
      ++premarked;
    } else {
      proposers.push_back(u);
    }
  }

  const DmraResult r = solve_dmra_partial(s, {}, state, alloc, proposers);
  // The pre-assigned UEs kept their BS.
  for (std::uint32_t ui = 0; ui < 20; ++ui) {
    const UeId u{ui};
    if (full.bs_of(u)) {
      EXPECT_EQ(alloc.bs_of(u), full.bs_of(u));
    }
  }
  // Everyone is matched or legitimately at the cloud, and it's feasible.
  EXPECT_TRUE(check_feasibility(s, alloc).ok);
  EXPECT_GE(r.proposals_sent, alloc.num_served() - premarked);
}

TEST(PartialSolver, AllPreMatchedMeansNothingToDo) {
  ScenarioConfig cfg;
  cfg.num_ues = 50;
  const Scenario s = generate_scenario(cfg, 5);
  ResourceState state(s);
  Allocation alloc(s.num_ues());
  const DmraResult r = solve_dmra_partial(s, {}, state, alloc, {});  // nobody proposes
  EXPECT_EQ(r.rounds, 0u);
  EXPECT_EQ(r.proposals_sent, 0u);
}

TEST(PartialSolver, RespectsDepletedState) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, /*cru=*/4);
  ms.add_ue(sp, {10, 0}, ServiceId{0}, 4);
  ms.add_ue(sp, {20, 0}, ServiceId{0}, 4);
  const Scenario s = ms.build();
  ResourceState state(s);
  Allocation alloc(s.num_ues());
  // Externally consume the only slot for UE 1's benefit.
  state.commit(UeId{1}, BsId{0}, s.candidate_rrbs(UeId{1}, BsId{0}));
  alloc.assign(UeId{1}, BsId{0});
  const UeId proposer{0};
  const DmraResult r = solve_dmra_partial(s, {}, state, alloc, {&proposer, 1});
  (void)r;
  EXPECT_TRUE(alloc.is_cloud(UeId{0}));  // nothing left for UE 0
}

TEST(PartialSolver, MismatchedSizesAreContractViolations) {
  ScenarioConfig cfg;
  cfg.num_ues = 10;
  const Scenario s = generate_scenario(cfg, 1);
  ResourceState state(s);
  const std::vector<UeId> everyone = all_ues(s);
  Allocation small(5);
  EXPECT_THROW(solve_dmra_partial(s, {}, state, small, everyone), ContractViolation);
  Allocation ok(10);
  const std::vector<UeId> descending{UeId{3}, UeId{2}};
  EXPECT_THROW(solve_dmra_partial(s, {}, state, ok, descending), ContractViolation);
  const std::vector<UeId> duplicate{UeId{2}, UeId{2}};
  EXPECT_THROW(solve_dmra_partial(s, {}, state, ok, duplicate), ContractViolation);
  const std::vector<UeId> outside{UeId{4}, UeId{10}};
  EXPECT_THROW(solve_dmra_partial(s, {}, state, ok, outside), ContractViolation);
  // A proposer that already holds a BS would commit its demand twice.
  const UeId u{0};
  ASSERT_FALSE(s.candidates(u).empty());
  const BsId held = s.candidates(u)[0];
  ASSERT_TRUE(state.can_serve(u, held));
  ok.assign(u, held);
  EXPECT_THROW(solve_dmra_partial(s, {}, state, ok, everyone), ContractViolation);
  // Nothing ran: the ledger is untouched.
  EXPECT_EQ(state.remaining_rrbs(held), s.bs(held).num_rrbs);
}

TEST(PartialSolver, EquivalentToFullSolveFromEmptyState) {
  ScenarioConfig cfg;
  cfg.num_ues = 400;
  const Scenario s = generate_scenario(cfg, 7);
  ResourceState state(s);
  Allocation alloc(s.num_ues());
  const DmraResult partial = solve_dmra_partial(s, {}, state, alloc, all_ues(s));
  const DmraResult full = solve_dmra(s);
  EXPECT_EQ(alloc, full.allocation);
  EXPECT_EQ(partial.rounds, full.rounds);
  EXPECT_EQ(partial.proposals_sent, full.proposals_sent);
}

}  // namespace
}  // namespace dmra
