// Safety and liveness of the decentralized protocol on a lossy network:
// a fault plan whose only fault is per-message loss.
#include <gtest/gtest.h>

#include "core/decentralized.hpp"
#include "core/solver.hpp"
#include "net/bus.hpp"
#include "net/fault_plan.hpp"
#include "sim/feasibility.hpp"
#include "sim/metrics.hpp"
#include "util/require.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

Scenario test_scenario(std::size_t ues = 300, std::uint64_t seed = 9) {
  ScenarioConfig cfg;
  cfg.num_ues = ues;
  return generate_scenario(cfg, seed);
}

FaultPlan loss_plan(double drop_probability) {
  FaultPlan plan;
  plan.link.drop_probability = drop_probability;
  return plan;
}

TEST(LossyNetwork, ZeroLossIsStillBitIdenticalToDirect) {
  const Scenario s = test_scenario();
  const FaultPlan no_loss = loss_plan(0.0);
  const NetworkConditions reliable{.faults = &no_loss};
  EXPECT_EQ(run_decentralized_dmra(s, {}, reliable).dmra.allocation,
            solve_dmra(s).allocation);
}

class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, AlwaysFeasibleAndTerminates) {
  const Scenario s = test_scenario();
  const FaultPlan plan = loss_plan(GetParam());
  const NetworkConditions net{.seed = 5, .faults = &plan};
  const DecentralizedResult r = run_decentralized_dmra(s, {}, net);
  const FeasibilityReport report = check_feasibility(s, r.dmra.allocation);
  EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_GT(r.bus.messages_dropped, 0u);
  EXPECT_LE(r.dmra.rounds, 2 * s.num_ues() + 16);
}

INSTANTIATE_TEST_SUITE_P(DropRates, LossSweep, ::testing::Values(0.05, 0.15, 0.3, 0.5));

TEST(LossyNetwork, QualityDegradesGracefully) {
  const Scenario s = test_scenario(500);
  const double clean = total_profit(s, run_decentralized_dmra(s).dmra.allocation);
  const FaultPlan plan = loss_plan(0.2);
  const NetworkConditions net{.seed = 7, .faults = &plan};
  const double lossy = total_profit(s, run_decentralized_dmra(s, {}, net).dmra.allocation);
  // Losses cost retries and sometimes strand a UE, but the protocol keeps
  // the vast majority of the value.
  EXPECT_GT(lossy, 0.8 * clean);
}

TEST(LossyNetwork, DeterministicPerSeedAndSeedSensitive) {
  const Scenario s = test_scenario(200);
  const FaultPlan plan = loss_plan(0.2);
  const NetworkConditions a{.seed = 11, .faults = &plan};
  const NetworkConditions b{.seed = 12, .faults = &plan};
  EXPECT_EQ(run_decentralized_dmra(s, {}, a).dmra.allocation,
            run_decentralized_dmra(s, {}, a).dmra.allocation);
  EXPECT_NE(run_decentralized_dmra(s, {}, a).bus.messages_dropped,
            run_decentralized_dmra(s, {}, b).bus.messages_dropped);
}

TEST(LossyNetwork, NoDoubleCommitEvenUnderHeavyLoss) {
  // The feasibility check already proves no BS is oversubscribed relative
  // to the final allocation; here we additionally pin the invariant that
  // every UE appears at most once (Allocation guarantees it) and that the
  // heavy-loss run still serves a sane fraction.
  const Scenario s = test_scenario(400);
  const FaultPlan plan = loss_plan(0.4);
  const NetworkConditions net{.seed = 3, .faults = &plan};
  const DecentralizedResult r = run_decentralized_dmra(s, {}, net);
  EXPECT_TRUE(check_feasibility(s, r.dmra.allocation).ok);
  EXPECT_GT(r.dmra.allocation.num_served(), s.num_ues() / 2);
}

TEST(LossyNetwork, LossCostsMoreMessages) {
  const Scenario s = test_scenario(250);
  const DecentralizedResult clean = run_decentralized_dmra(s);
  const FaultPlan plan = loss_plan(0.25);
  const DecentralizedResult lossy =
      run_decentralized_dmra(s, {}, NetworkConditions{.seed = 5, .faults = &plan});
  // Retries plus per-round rebroadcasts dominate the dropped savings.
  EXPECT_GT(lossy.bus.messages_sent, clean.bus.messages_sent);
  EXPECT_GT(lossy.dmra.rounds, 0u);
}

TEST(LossyNetwork, BusRejectsInvalidDropRates) {
  MessageBus<int> bus;
  EXPECT_THROW(bus.set_faults(LinkFaults{.drop_probability = -0.1}, 1), ContractViolation);
  EXPECT_THROW(bus.set_faults(LinkFaults{.drop_probability = 1.0}, 1), ContractViolation);
}

TEST(LossyNetwork, BusDropStatsAddUp) {
  MessageBus<int> bus;
  const AgentId a = bus.register_agent();
  bus.set_faults(LinkFaults{.drop_probability = 0.5}, 42);
  for (int i = 0; i < 2000; ++i) bus.send(a, a, i);
  bus.deliver();
  const BusStats& st = bus.stats();
  EXPECT_EQ(st.messages_dropped + st.messages_delivered, st.messages_sent);
  EXPECT_NEAR(static_cast<double>(st.messages_dropped) / st.messages_sent, 0.5, 0.05);
}

}  // namespace
}  // namespace dmra
