// Admission rules (IncrementalConfig::rule, docs/SERVING.md): any one-shot
// Allocator can decide run_churn's placements on the residual scenario.
// DMRA as a rule must reproduce the built-in Eq. 17 path byte for byte;
// foreign rules must leave the serving ledger audit-clean; the rule's own
// run must stay out of the serving trace and flight ring. The Online suite
// serves arrivals and departures with any one-shot allocator as the rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "baselines/dcsp.hpp"
#include "baselines/exact.hpp"
#include "baselines/greedy.hpp"
#include "baselines/nonco.hpp"
#include "baselines/random_alloc.hpp"
#include "check/invariant_auditor.hpp"
#include "core/dmra_allocator.hpp"
#include "core/incremental.hpp"
#include "mec/audit.hpp"
#include "mec/resources.hpp"
#include "obs/flight.hpp"
#include "obs/recorder.hpp"
#include "sim/churn.hpp"
#include "sim/feasibility.hpp"
#include "sim/metrics.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

/// The benchmark's dense deployment (10x10 grid, 100 BSs in a 3000 m
/// arena) at a 1200-UE steady state, with moves and one crash.
ChurnConfig dense_config() {
  ChurnConfig cfg;
  cfg.deployment.bss_per_sp = 20;
  cfg.deployment.area_side_m = 3000.0;
  cfg.arrival_rate_hz = 12.0;
  cfg.mean_dwell_s = 100.0;
  cfg.prefill = cfg.steady_state_target();
  cfg.mean_move_interval_s = 30.0;
  cfg.horizon_events = cfg.prefill + 1200;
  cfg.resolve_every = 600;
  cfg.seed = 8;
  FaultSpec faults;
  faults.crashes = 1;
  faults.crash_round = cfg.prefill + 400;
  faults.down_rounds = 300;
  faults.seed = 8;
  cfg.faults = faults;
  return cfg;
}

void expect_rule_reproduces_builtin(ChurnConfig cfg) {
  const DmraAllocator rule(cfg.incremental.dmra);
  const ChurnResult builtin = run_churn(cfg);
  cfg.incremental.rule = &rule;
  const ChurnResult ruled = run_churn(cfg);
  EXPECT_EQ(builtin.event_log, ruled.event_log);
  EXPECT_EQ(builtin.final_allocation, ruled.final_allocation);
}

TEST(ServingRule, DmraRuleReproducesBuiltInDecisions) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("serving probe, seed " + std::to_string(seed));
    expect_rule_reproduces_builtin(test::serving_probe_config(seed));
  }
  SCOPED_TRACE("dense deployment");
  expect_rule_reproduces_builtin(dense_config());
}

TEST(ServingRule, ForeignRulesRunAuditClean) {
  const DcspAllocator dcsp;
  const NonCoAllocator nonco;  // one-shot, the paper's reading
  const ChurnConfig base = test::serving_probe_config(1);
  const ChurnTimeline timeline = build_churn_timeline(base);
  const ChurnResult builtin = run_churn(timeline, base);
  for (const Allocator* rule : {static_cast<const Allocator*>(&dcsp),
                                static_cast<const Allocator*>(&nonco)}) {
    SCOPED_TRACE(rule->name());
    ChurnConfig cfg = base;
    cfg.incremental.rule = rule;
    check::AuditorOptions options;
    options.throw_on_violation = false;
    check::InvariantAuditor auditor(options);
    ChurnResult r;
    {
      audit::ScopedAuditObserver install(&auditor);
      r = run_churn(timeline, cfg);
    }
    EXPECT_TRUE(auditor.findings().ok)
        << (auditor.findings().violations.empty() ? "" : auditor.findings().violations[0]);
    EXPECT_GT(auditor.rounds_audited(), r.stats.events);  // the rule's rounds too
    EXPECT_EQ(r.stats.crashes, 1u);
    EXPECT_GT(r.stats.orphaned_ues, 0u);
    // The rule really decided: its placements differ from DMRA's.
    EXPECT_NE(r.event_log, builtin.event_log);
    const FeasibilityReport report = check_feasibility(timeline.universe, r.final_allocation);
    EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
    const double recomputed = total_profit(timeline.universe, r.final_allocation);
    EXPECT_NEAR(r.stats.final_profit, recomputed, 1e-9 * std::max(1.0, std::abs(recomputed)));
  }
}

TEST(ServingRule, RuleRunsMutedInTraceAndFlightRecorder) {
  // A decentralized rule narrates its own protocol rounds when a recorder
  // is installed; none of that may reach the serving trace or flight ring.
  const DecentralizedDmraAllocator rule;
  ChurnConfig cfg = test::serving_probe_config(2);
  cfg.horizon_events = cfg.prefill + 200;
  cfg.faults.reset();
  cfg.incremental.rule = &rule;
  const ChurnResult untraced = run_churn(cfg);

  obs::TraceRecorder rec;
  obs::FlightRecorder fr;
  ChurnResult traced;
  {
    obs::ScopedTraceRecorder install(&rec);
    obs::ScopedFlightRecorder install_flight(&fr);
    traced = run_churn(cfg);
  }
  EXPECT_EQ(untraced.event_log, traced.event_log);
  ASSERT_EQ(rec.rows().size(), traced.stats.events);
  for (const obs::RoundRow& row : rec.rows()) EXPECT_EQ(row.source, "sim/churn");
  EXPECT_EQ(fr.rounds_seen(), traced.stats.events);
  for (const obs::RoundRow& row : fr.ring_rounds()) EXPECT_EQ(row.source, "sim/churn");
}

TEST(ServingRule, RequiresAnUnshadowedChannel) {
  // Shadowing draws are keyed by UE id, and the residual renumbers the
  // slot to UE 0: the rule would see other links than the ledger.
  const DmraAllocator rule;
  ChurnConfig cfg = test::serving_probe_config(3);
  cfg.horizon_events = 50;
  cfg.deployment.channel.shadowing_sigma_db = 4.0;
  EXPECT_NO_THROW(run_churn(cfg));
  cfg.incremental.rule = &rule;
  EXPECT_THROW(run_churn(cfg), ContractViolation);
}

// ---- online serving: arrivals and departures decided by a one-shot rule ----

/// The serving probe's deployment and load (about 1.6x what it can serve)
/// with arrivals and departures only: no moves, no faults.
ChurnConfig online_config(const Allocator& rule) {
  ChurnConfig cfg = test::serving_probe_config(5);
  cfg.mean_move_interval_s = 0.0;
  cfg.faults.reset();
  cfg.incremental.rule = &rule;
  return cfg;
}

/// The probe's 10-BS deployment with a population of `ues` slots.
Scenario online_deployment(std::size_t ues, std::uint64_t seed) {
  ScenarioConfig cfg = test::serving_probe_config(seed).deployment;
  cfg.num_ues = ues;
  return generate_scenario(cfg, seed);
}

// Serving has no epochs: every event of the timeline is applied, and the
// stats account for each decision the rule made.
TEST(Online, RunsAllEpochsAndAccounts) {
  const DmraAllocator rule;
  const ChurnConfig cfg = online_config(rule);
  const ChurnTimeline timeline = build_churn_timeline(cfg);
  const ChurnResult r = run_churn(timeline, cfg);
  const ChurnStats& s = r.stats;
  std::size_t arrivals = 0;
  for (const ChurnEvent& e : timeline.events)
    if (e.kind == ChurnEventKind::kArrival) ++arrivals;
  EXPECT_EQ(s.events, cfg.horizon_events);
  EXPECT_EQ(s.arrivals, arrivals);
  EXPECT_EQ(s.events, s.arrivals + s.departures);
  EXPECT_EQ(s.arrivals, s.admitted_to_bs + s.admitted_to_cloud);
  EXPECT_EQ(s.final_active, s.arrivals - s.departures);
  EXPECT_EQ(s.final_active, s.final_served + s.final_cloud);
  EXPECT_EQ(s.final_served, r.final_allocation.num_served());
  EXPECT_GT(s.final_cloud, 0u);  // overloaded: the rule sent some to the cloud
  const double recomputed = total_profit(timeline.universe, r.final_allocation);
  EXPECT_NEAR(s.final_profit, recomputed, 1e-9 * std::max(1.0, std::abs(recomputed)));
}

TEST(Online, Deterministic) {
  const DmraAllocator dmra;
  const RandomAllocator random(7);  // seeded: draws the same on every call
  for (const Allocator* rule : {static_cast<const Allocator*>(&dmra),
                                static_cast<const Allocator*>(&random)}) {
    SCOPED_TRACE(rule->name());
    const ChurnResult a = run_churn(online_config(*rule));
    const ChurnResult b = run_churn(online_config(*rule));
    EXPECT_EQ(a.event_log, b.event_log);
    EXPECT_EQ(a.final_allocation, b.final_allocation);
    EXPECT_EQ(a.stats.final_profit, b.stats.final_profit);
  }
}

// After every admission, departure and readmit sweep the rule decides,
// the live ledger equals a from-scratch recount: remaining capacity plus
// what the served UEs hold is nominal, for every BS and service.
TEST(Online, ResourcesConserved) {
  const Scenario s = online_deployment(600, 5);
  const DmraAllocator rule;
  IncrementalConfig config;
  config.rule = &rule;
  IncrementalAllocator inc(s, config);
  Rng rng("online-conservation", 5);
  for (std::size_t step = 0; step < 1500; ++step) {
    if (step % 50 == 49) {
      inc.readmit_waiting([](UeId, BsId) {});
    } else {
      const UeId u{static_cast<std::uint32_t>(rng.index(s.num_ues()))};
      inc.active(u) ? inc.remove(u) : static_cast<void>(inc.admit(u));
    }
    ResourceState recount(s);
    for (const BaseStation& b : s.bss()) {
      recount.recount_remaining(b.id, inc.allocation());
      ASSERT_EQ(inc.state().remaining_rrbs(b.id), recount.remaining_rrbs(b.id))
          << "BS " << b.id.value << " at step " << step;
      for (std::size_t j = 0; j < s.num_services(); ++j) {
        const ServiceId sj{static_cast<std::uint32_t>(j)};
        ASSERT_EQ(inc.state().remaining_crus(b.id, sj), recount.remaining_crus(b.id, sj))
            << "BS " << b.id.value << " at step " << step;
      }
    }
  }
  EXPECT_GT(inc.allocation().num_served(), 0u);
  EXPECT_GT(inc.num_active(), inc.allocation().num_served());  // contended
}

// Once a batch has departed, the next one is placed exactly as on an
// empty deployment: departures return everything they held.
TEST(Online, DeparturesFreeResources) {
  const Scenario s = online_deployment(1000, 9);
  const DmraAllocator rule;
  IncrementalConfig config;
  config.rule = &rule;
  IncrementalAllocator churned(s, config);
  IncrementalAllocator fresh(s, config);
  for (std::uint32_t u = 0; u < 500; ++u) churned.admit(UeId{u});
  EXPECT_GT(churned.allocation().num_served(), 0u);
  for (std::uint32_t u = 0; u < 500; ++u) churned.remove(UeId{u});
  EXPECT_EQ(churned.num_active(), 0u);
  for (std::uint32_t u = 500; u < 1000; ++u) {
    churned.admit(UeId{u});
    fresh.admit(UeId{u});
  }
  EXPECT_EQ(churned.allocation(), fresh.allocation());
  EXPECT_NEAR(churned.live_profit(), fresh.live_profit(), 1e-9 * fresh.live_profit());
  for (const BaseStation& b : s.bss())
    EXPECT_EQ(churned.state().remaining_rrbs(b.id), fresh.state().remaining_rrbs(b.id));
}

TEST(Online, WorksWithAnyAllocator) {
  const DmraAllocator dmra;
  const DcspAllocator dcsp;
  const NonCoAllocator nonco;
  const GreedyProfitAllocator greedy;
  const RandomAllocator random(3);
  const ExactAllocator exact;
  const ChurnConfig base = online_config(dmra);
  const ChurnTimeline timeline = build_churn_timeline(base);
  for (const Allocator* rule :
       {static_cast<const Allocator*>(&dmra), static_cast<const Allocator*>(&dcsp),
        static_cast<const Allocator*>(&nonco), static_cast<const Allocator*>(&greedy),
        static_cast<const Allocator*>(&random), static_cast<const Allocator*>(&exact)}) {
    SCOPED_TRACE(rule->name());
    ChurnConfig cfg = base;
    cfg.incremental.rule = rule;
    const ChurnResult r = run_churn(timeline, cfg);
    EXPECT_EQ(r.stats.events, cfg.horizon_events);
    EXPECT_GT(r.stats.final_served, 0u);
    const FeasibilityReport report = check_feasibility(timeline.universe, r.final_allocation);
    EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
    const double recomputed = total_profit(timeline.universe, r.final_allocation);
    EXPECT_NEAR(r.stats.final_profit, recomputed, 1e-9 * std::max(1.0, std::abs(recomputed)));
  }
}

// The arrival and lifetime processes: a negative arrival rate is a
// contract violation, and a zero dwell departs each UE the instant it
// arrives.
TEST(Online, LifetimeContracts) {
  const DmraAllocator rule;
  ChurnConfig cfg = online_config(rule);
  cfg.arrival_rate_hz = -1.0;
  EXPECT_THROW(build_churn_timeline(cfg), ContractViolation);
  EXPECT_THROW(run_churn(cfg), ContractViolation);

  cfg.arrival_rate_hz = 6.0;
  cfg.mean_dwell_s = 0.0;
  cfg.prefill = 0;
  cfg.horizon_events = 200;
  const ChurnTimeline timeline = build_churn_timeline(cfg);
  std::vector<double> arrived_at(timeline.num_logical_ues, -1.0);
  std::size_t departures = 0;
  for (const ChurnEvent& e : timeline.events) {
    if (e.kind == ChurnEventKind::kArrival) arrived_at[e.ue] = e.time_s;
    if (e.kind == ChurnEventKind::kDeparture) {
      EXPECT_EQ(e.time_s, arrived_at[e.ue]);
      ++departures;
    }
  }
  EXPECT_GT(departures, 0u);
  const ChurnResult r = run_churn(timeline, cfg);
  EXPECT_LE(r.stats.final_active, 1u);
}

// Starting empty, the served load grows through the warm-up and then
// holds steady around the arrival rate x dwell population.
TEST(Online, SteadyStateUtilizationStabilizes) {
  const DmraAllocator rule;
  ChurnConfig cfg = online_config(rule);
  cfg.arrival_rate_hz = 2.6;  // 260 UEs at steady state
  cfg.prefill = 0;
  const auto utilization_after = [&](std::size_t events) {
    cfg.horizon_events = events;
    const ChurnTimeline timeline = build_churn_timeline(cfg);
    return evaluate(timeline.universe, run_churn(timeline, cfg).final_allocation)
        .mean_rrb_utilization;
  };
  EXPECT_GT(utilization_after(400), utilization_after(100));
  EXPECT_NEAR(utilization_after(1800), utilization_after(2200), 0.15);
}

}  // namespace
}  // namespace dmra
