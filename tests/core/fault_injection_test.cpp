// Protocol hardening under injected faults: the zero-fault golden
// contract, graceful degradation under loss/crash schedules, orphan
// accounting, auditor cleanliness, per-seed determinism, and which plans
// arm crash recovery.
#include <gtest/gtest.h>

#include <string>

#include "check/invariant_auditor.hpp"
#include "core/decentralized.hpp"
#include "core/solver.hpp"
#include "mec/audit.hpp"
#include "net/fault_plan.hpp"
#include "obs/recorder.hpp"
#include "sim/faults.hpp"
#include "sim/feasibility.hpp"
#include "sim/metrics.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

Scenario test_scenario(std::size_t ues = 300, std::uint64_t seed = 9) {
  ScenarioConfig cfg;
  cfg.num_ues = ues;
  return generate_scenario(cfg, seed);
}

// The golden contract from net/fault_plan.hpp: an attached plan with
// any() == false must be indistinguishable from no plan at all — same
// allocation, same protocol counters, same bus traffic, and a
// byte-identical trace export.
TEST(FaultInjection, ZeroFaultPlanIsByteIdenticalToNoPlan) {
  const Scenario s = test_scenario();

  obs::TraceRecorder baseline_trace;
  DecentralizedResult baseline = [&] {
    obs::ScopedTraceRecorder scope(&baseline_trace);
    return run_decentralized_dmra(s);
  }();

  const FaultPlan empty_plan;
  ASSERT_FALSE(empty_plan.any());
  NetworkConditions net;
  net.faults = &empty_plan;
  obs::TraceRecorder planned_trace;
  DecentralizedResult planned = [&] {
    obs::ScopedTraceRecorder scope(&planned_trace);
    return run_decentralized_dmra(s, {}, net);
  }();

  EXPECT_EQ(planned.dmra.allocation, baseline.dmra.allocation);
  EXPECT_EQ(planned.dmra.rounds, baseline.dmra.rounds);
  EXPECT_EQ(planned.dmra.proposals_sent, baseline.dmra.proposals_sent);
  EXPECT_EQ(planned.dmra.rejections, baseline.dmra.rejections);
  EXPECT_EQ(planned.bus.messages_sent, baseline.bus.messages_sent);
  EXPECT_EQ(planned.bus.messages_delivered, baseline.bus.messages_delivered);
  EXPECT_EQ(planned.bus.messages_dropped, 0u);
  EXPECT_EQ(planned.recovery.orphaned_ues, 0u);
  EXPECT_EQ(planned_trace.to_chrome_trace_json(), baseline_trace.to_chrome_trace_json());
}

TEST(FaultInjection, LossOnlyPlanDegradesGracefully) {
  const Scenario s = test_scenario(400);
  const double clean = total_profit(s, run_decentralized_dmra(s).dmra.allocation);

  FaultPlan plan;
  plan.link.drop_probability = 0.2;
  NetworkConditions net;
  net.seed = 7;
  net.faults = &plan;
  const DecentralizedResult r = run_decentralized_dmra(s, {}, net);

  const FeasibilityReport report = check_feasibility(s, r.dmra.allocation);
  EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_GT(r.bus.messages_dropped, 0u);
  EXPECT_GT(total_profit(s, r.dmra.allocation), 0.8 * clean);
}

// Loss + two staggered never-recovering crashes: the acceptance scenario
// of the resilience layer. The run must terminate, stay feasible, and
// account for every orphaning event exactly once.
TEST(FaultInjection, CrashesTerminateFeasiblyAndConserveOrphans) {
  const Scenario s = test_scenario();
  FaultSpec spec;
  spec.loss = 0.2;
  spec.crashes = 2;
  spec.crash_round = 2;
  spec.seed = 13;
  const FaultyDmraAllocator faulty(spec);
  const DecentralizedResult r = faulty.run(s);

  const FeasibilityReport report = check_feasibility(s, r.dmra.allocation);
  EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_EQ(r.recovery.bs_crashes, 2u);
  EXPECT_EQ(r.recovery.bs_recoveries, 0u);  // down_rounds = 0: never recovers
  EXPECT_GT(r.recovery.orphaned_ues, 0u);
  EXPECT_EQ(r.recovery.orphaned_ues, r.recovery.repaired_in_protocol +
                                         r.recovery.repaired_by_rematch +
                                         r.recovery.cloud_fallbacks);
  // Two dead cells still leave most of the deployment serving.
  EXPECT_GT(r.dmra.allocation.num_served(), s.num_ues() / 2);
}

TEST(FaultInjection, RecoveredBsAndDegradationAreScheduled) {
  const Scenario s = test_scenario(200);
  FaultSpec spec;
  spec.crashes = 1;
  spec.crash_round = 2;
  spec.down_rounds = 4;  // comes back cold
  spec.degradations = 1;
  spec.degrade_factor = 0.5;
  spec.degrade_round = 3;
  spec.seed = 21;
  const DecentralizedResult r = FaultyDmraAllocator(spec).run(s);

  EXPECT_EQ(r.recovery.bs_crashes, 1u);
  EXPECT_EQ(r.recovery.bs_recoveries, 1u);
  EXPECT_EQ(r.recovery.capacity_degradations, 1u);
  EXPECT_TRUE(check_feasibility(s, r.dmra.allocation).ok);
}

// Every fault-mode round report must satisfy the invariant auditor —
// crashing BSs, clamped repair ledgers and all.
TEST(FaultInjection, AuditorRunsCleanUnderFaults) {
  const Scenario s = test_scenario(250);
  FaultSpec spec;
  spec.loss = 0.15;
  spec.crashes = 2;
  spec.crash_round = 2;
  spec.seed = 5;

  check::InvariantAuditor auditor;
  DecentralizedResult r = [&] {
    audit::ScopedAuditObserver scope(&auditor);
    return FaultyDmraAllocator(spec).run(s);
  }();

  EXPECT_TRUE(auditor.findings().ok)
      << (auditor.findings().violations.empty() ? ""
                                                : auditor.findings().violations[0]);
#if defined(DMRA_AUDIT_ENABLED) && DMRA_AUDIT_ENABLED
  EXPECT_GT(auditor.rounds_audited(), 0u);
#endif
  EXPECT_TRUE(check_feasibility(s, r.dmra.allocation).ok);
}

TEST(FaultInjection, DeterministicPerSeedAndSeedSensitive) {
  const Scenario s = test_scenario(200);
  FaultSpec spec;
  spec.loss = 0.2;
  spec.crashes = 1;
  spec.crash_round = 3;
  spec.seed = 11;
  const FaultyDmraAllocator a(spec);
  const DecentralizedResult r1 = a.run(s);
  const DecentralizedResult r2 = a.run(s);
  EXPECT_EQ(r1.dmra.allocation, r2.dmra.allocation);
  EXPECT_EQ(r1.dmra.rounds, r2.dmra.rounds);
  EXPECT_EQ(r1.bus.messages_dropped, r2.bus.messages_dropped);
  EXPECT_EQ(r1.recovery.orphaned_ues, r2.recovery.orphaned_ues);

  spec.seed = 12;
  const DecentralizedResult r3 = FaultyDmraAllocator(spec).run(s);
  EXPECT_NE(r1.bus.messages_dropped, r3.bus.messages_dropped);
}

// The arming rule: a plan without outages gets the unreliable-network
// protocol (re-acks, rebroadcasts) but no crash recovery, because with no
// BS able to crash, silence means loss and suspecting the serving BS or
// presuming a candidate dead only throws profit away.
TEST(FaultInjection, LossOnlyPlanArmsNoCrashRecovery) {
  const auto expect_no_crash_recovery = [](const DecentralizedResult& r) {
    EXPECT_EQ(r.recovery.reproposals, 0u);
    EXPECT_EQ(r.recovery.presumed_dead, 0u);
    EXPECT_EQ(r.recovery.suspected_serving_bs, 0u);
  };
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario s = test_scenario(300, seed);
    const double clean = total_profit(s, run_decentralized_dmra(s).dmra.allocation);

    FaultPlan loss;
    loss.link.drop_probability = 0.3;
    const DecentralizedResult r =
        run_decentralized_dmra(s, {}, {.seed = 7 * seed, .faults = &loss});
    EXPECT_GT(r.bus.messages_dropped, 0u);
    expect_no_crash_recovery(r);
    EXPECT_LE(r.dmra.rounds, 64u);
    EXPECT_GE(total_profit(s, r.dmra.allocation), 0.99 * clean);

    // Every other plan without outages obeys the same rule.
    FaultPlan dup;
    dup.link.duplicate_probability = 0.1;
    FaultPlan delay;
    delay.link.delay_probability = 0.1;
    delay.link.max_delay_rounds = 3;
    FaultPlan degrade;
    degrade.degradations.push_back(CapacityDegradation{BsId{0}, 2, 0.5, 0.5});
    FaultPlan mixed;
    mixed.link = {.drop_probability = 0.1,
                  .duplicate_probability = 0.05,
                  .delay_probability = 0.1,
                  .max_delay_rounds = 3};
    for (const FaultPlan* plan : {&dup, &delay, &degrade, &mixed}) {
      const DecentralizedResult other =
          run_decentralized_dmra(s, {}, {.seed = 7 * seed, .faults = plan});
      expect_no_crash_recovery(other);
      EXPECT_TRUE(check_feasibility(s, other.dmra.allocation).ok);
    }
  }
}

// With delays of three or more bus rounds some rebroadcast is always
// parked, so the quiet-round exit must not wait for an empty bus: the
// delay grace covers a delayed proposal's two hops to a BS.
TEST(FaultInjection, DelayPlansConvergeBeforeTheRoundCap) {
  for (const std::uint64_t max_delay : {3u, 4u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("max_delay_rounds " + std::to_string(max_delay) + ", seed " +
                   std::to_string(seed));
      const Scenario s = test_scenario(300, seed);
      FaultPlan plan;
      plan.link.delay_probability = 0.1;
      plan.link.max_delay_rounds = max_delay;
      check::InvariantAuditor auditor;
      const DecentralizedResult r = [&] {
        audit::ScopedAuditObserver scope(&auditor);
        return run_decentralized_dmra(s, {}, {.seed = seed, .faults = &plan});
      }();
      EXPECT_GT(r.bus.messages_delayed, 0u);
      EXPECT_LE(r.dmra.rounds, 64u);
      EXPECT_TRUE(check_feasibility(s, r.dmra.allocation).ok);
      EXPECT_TRUE(auditor.findings().ok)
          << (auditor.findings().violations.empty() ? ""
                                                    : auditor.findings().violations[0]);
    }
  }
}

// The benchmark's faulted pass (perfbench's dense_batch plan: 5% loss,
// two crashes, fault seed 7) on its deployment — 100 BSs in a 3000 m
// arena at 4000 UEs, about 1.1x what the MEC layer can serve — keeps a
// floor of solve_dmra's profit, conserves orphans, and passes the
// invariant auditor every round. The engine that sent resource levels as
// one envelope per receiver kept 0.967243, 0.965676 and 0.971298 of it on
// generator seeds 1-3; the floor is the lowest of those minus 0.01.
TEST(FaultInjection, DenseDeploymentKeepsAFloorOfTheProfitUnderTheBenchmarkPlan) {
  constexpr double kFloor = 0.965676 - 0.01;
  ScenarioConfig dense;
  dense.bss_per_sp = 20;
  dense.area_side_m = 3000.0;
  dense.num_ues = 4000;
  const FaultyDmraAllocator faulty(parse_fault_spec("loss=0.05,crashes=2,seed=7"));
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("generator seed " + std::to_string(seed));
    const Scenario s = generate_scenario(dense, seed);
    check::InvariantAuditor auditor;
    const DecentralizedResult r = [&] {
      audit::ScopedAuditObserver scope(&auditor);
      return faulty.run(s);
    }();
    EXPECT_TRUE(auditor.findings().ok)
        << (auditor.findings().violations.empty() ? ""
                                                  : auditor.findings().violations[0]);
    EXPECT_TRUE(check_feasibility(s, r.dmra.allocation).ok);
    EXPECT_EQ(r.recovery.bs_crashes, 2u);
    EXPECT_GT(r.recovery.orphaned_ues, 0u);
    EXPECT_EQ(r.recovery.orphaned_ues, r.recovery.repaired_in_protocol +
                                           r.recovery.repaired_by_rematch +
                                           r.recovery.cloud_fallbacks);
    EXPECT_GE(total_profit(s, r.dmra.allocation),
              kFloor * total_profit(s, solve_dmra(s).allocation));
  }
}

TEST(FaultInjection, FaultSpecParserRoundTrips) {
  const FaultSpec spec = parse_fault_spec(
      "loss=0.1,dup=0.02,delay=0.05,delay-max=3,crashes=2,crash-round=4,"
      "down-rounds=8,degrade=1,degrade-factor=0.25,degrade-round=6,seed=7");
  EXPECT_DOUBLE_EQ(spec.loss, 0.1);
  EXPECT_DOUBLE_EQ(spec.duplicate, 0.02);
  EXPECT_DOUBLE_EQ(spec.delay, 0.05);
  EXPECT_EQ(spec.max_delay_rounds, 3u);
  EXPECT_EQ(spec.crashes, 2u);
  EXPECT_EQ(spec.crash_round, 4u);
  EXPECT_EQ(spec.down_rounds, 8u);
  EXPECT_EQ(spec.degradations, 1u);
  EXPECT_DOUBLE_EQ(spec.degrade_factor, 0.25);
  EXPECT_EQ(spec.degrade_round, 6u);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_TRUE(spec.any());
  EXPECT_FALSE(parse_fault_spec("").any());
  EXPECT_THROW(parse_fault_spec("loss"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("mystery=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("loss=abc"), std::invalid_argument);
  // Out-of-range values are spec errors, not FaultPlan::validate aborts.
  for (const char* bad : {"loss=2", "loss=1", "loss=-0.1", "loss=nan", "dup=1", "delay=1.5",
                          "degrade-factor=1.01", "degrade-factor=-1", "crashes=-1",
                          "crash-round=-2", "delay=0.1,delay-max=0"})
    EXPECT_THROW(parse_fault_spec(bad), std::invalid_argument) << bad;
  EXPECT_DOUBLE_EQ(parse_fault_spec("degrade-factor=1").degrade_factor, 1.0);
  EXPECT_DOUBLE_EQ(parse_fault_spec("loss=0").loss, 0.0);

  const FaultPlan plan = make_fault_plan(spec, /*num_bss=*/7);
  EXPECT_NO_THROW(plan.validate(7));
  EXPECT_EQ(plan.outages.size(), 2u);
  EXPECT_EQ(plan.degradations.size(), 1u);
  // Same spec, same deployment — same victims.
  const FaultPlan again = make_fault_plan(spec, 7);
  ASSERT_EQ(again.outages.size(), 2u);
  EXPECT_EQ(again.outages[0].bs, plan.outages[0].bs);
  EXPECT_EQ(again.outages[1].bs, plan.outages[1].bs);
}

}  // namespace
}  // namespace dmra
