// Degenerate-scenario coverage: zero BSs and zero UEs are legal instances
// (e.g. a churn timeline with no arrivals). Every allocator
// and the metrics pipeline must handle them without NaNs, crashes, or
// auditor complaints.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "baselines/dcsp.hpp"
#include "baselines/exact.hpp"
#include "baselines/greedy.hpp"
#include "baselines/nonco.hpp"
#include "baselines/random_alloc.hpp"
#include "check/invariant_auditor.hpp"
#include "core/decentralized.hpp"
#include "core/dmra_allocator.hpp"
#include "core/solver.hpp"
#include "mec/audit.hpp"
#include "sim/metrics.hpp"
#include "../test_util.hpp"

namespace dmra {
namespace {

using test::MiniScenario;

/// One SP, two services, no BSs; `ues` UEs with nothing to propose to.
Scenario zero_bs_scenario(std::size_t ues) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  for (std::size_t i = 0; i < ues; ++i)
    ms.add_ue(sp, {50.0 * static_cast<double>(i), 0.0},
              ServiceId{static_cast<std::uint32_t>(i % 2)});
  return ms.build();
}

/// One SP, one BS, no UEs.
Scenario zero_ue_scenario() {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0.0, 0.0});
  return ms.build();
}

std::vector<AllocatorPtr> all_allocators() {
  std::vector<AllocatorPtr> algos;
  algos.push_back(std::make_unique<DmraAllocator>());
  algos.push_back(std::make_unique<DcspAllocator>());
  algos.push_back(std::make_unique<NonCoAllocator>());
  algos.push_back(std::make_unique<GreedyProfitAllocator>());
  algos.push_back(std::make_unique<RandomAllocator>(/*seed=*/7));
  algos.push_back(std::make_unique<ExactAllocator>());
  return algos;
}

void expect_finite_metrics(const RunMetrics& m) {
  EXPECT_TRUE(std::isfinite(m.total_profit));
  EXPECT_TRUE(std::isfinite(m.mean_cru_utilization));
  EXPECT_TRUE(std::isfinite(m.mean_rrb_utilization));
  EXPECT_TRUE(std::isfinite(m.forwarded_traffic_mbps));
}

TEST(Degenerate, ZeroBsScenarioBuilds) {
  const Scenario scenario = zero_bs_scenario(3);
  EXPECT_EQ(scenario.num_bss(), 0u);
  EXPECT_EQ(scenario.num_ues(), 3u);
  for (const UserEquipment& ue : scenario.ues())
    EXPECT_TRUE(scenario.candidates(ue.id).empty());
}

TEST(Degenerate, EvaluateZeroBsHasNoNan) {
  const Scenario scenario = zero_bs_scenario(3);
  const Allocation alloc(scenario.num_ues());  // everyone at the cloud
  const RunMetrics m = evaluate(scenario, alloc);
  expect_finite_metrics(m);
  EXPECT_EQ(m.served, 0u);
  EXPECT_EQ(m.cloud, 3u);
  EXPECT_DOUBLE_EQ(m.mean_cru_utilization, 0.0);
  EXPECT_DOUBLE_EQ(m.mean_rrb_utilization, 0.0);
}

TEST(Degenerate, EvaluateZeroUeHasNoNan) {
  const Scenario scenario = zero_ue_scenario();
  const Allocation alloc(0);
  const RunMetrics m = evaluate(scenario, alloc);
  expect_finite_metrics(m);
  EXPECT_EQ(m.served, 0u);
  EXPECT_EQ(m.cloud, 0u);
  EXPECT_DOUBLE_EQ(m.total_profit, 0.0);
}

TEST(Degenerate, DmraSolverHandlesZeroBsAndZeroUe) {
  check::InvariantAuditor auditor;
  audit::ScopedAuditObserver install(&auditor);

  const Scenario no_bs = zero_bs_scenario(3);
  const DmraResult r1 = solve_dmra(no_bs, {});
  EXPECT_EQ(r1.allocation.num_served(), 0u);
  EXPECT_EQ(r1.rounds, 0u);

  const Scenario no_ue = zero_ue_scenario();
  const DmraResult r2 = solve_dmra(no_ue, {});
  EXPECT_EQ(r2.allocation.num_ues(), 0u);
  EXPECT_EQ(r2.rounds, 0u);
}

TEST(Degenerate, DecentralizedRuntimeHandlesZeroBsAndZeroUe) {
  check::InvariantAuditor auditor;
  audit::ScopedAuditObserver install(&auditor);

  const DecentralizedResult r1 = run_decentralized_dmra(zero_bs_scenario(3));
  EXPECT_EQ(r1.dmra.allocation.num_served(), 0u);
  EXPECT_EQ(r1.bus.messages_sent, 0u);  // nothing to broadcast, nothing proposed

  const DecentralizedResult r2 = run_decentralized_dmra(zero_ue_scenario());
  EXPECT_EQ(r2.dmra.allocation.num_ues(), 0u);
}

TEST(Degenerate, AllAllocatorsSurviveZeroBs) {
  check::InvariantAuditor auditor;
  audit::ScopedAuditObserver install(&auditor);
  const Scenario scenario = zero_bs_scenario(4);
  for (const AllocatorPtr& algo : all_allocators()) {
    SCOPED_TRACE(algo->name());
    const Allocation alloc = algo->allocate(scenario);
    EXPECT_EQ(alloc.num_ues(), scenario.num_ues());
    EXPECT_EQ(alloc.num_served(), 0u);
    expect_finite_metrics(evaluate(scenario, alloc));
  }
}

TEST(Degenerate, AllAllocatorsSurviveZeroUe) {
  check::InvariantAuditor auditor;
  audit::ScopedAuditObserver install(&auditor);
  const Scenario scenario = zero_ue_scenario();
  for (const AllocatorPtr& algo : all_allocators()) {
    SCOPED_TRACE(algo->name());
    const Allocation alloc = algo->allocate(scenario);
    EXPECT_EQ(alloc.num_ues(), 0u);
    expect_finite_metrics(evaluate(scenario, alloc));
  }
}

}  // namespace
}  // namespace dmra
