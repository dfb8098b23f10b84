// Serving-driver contracts (docs/SERVING.md): deterministic timelines and
// event logs, auditor-clean replay (including departures and faults),
// handovers of a moving population, and the degenerate 0-arrival / 0-dwell
// cases next to sim/degenerate_test.
#include "sim/churn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "check/invariant_auditor.hpp"
#include "geometry/geometry.hpp"
#include "mec/allocation.hpp"
#include "mec/audit.hpp"
#include "obs/recorder.hpp"
#include "sim/feasibility.hpp"
#include "util/rng.hpp"

namespace dmra {
namespace {

ChurnConfig small_config() {
  ChurnConfig cfg;
  cfg.arrival_rate_hz = 8.0;
  cfg.mean_dwell_s = 25.0;
  cfg.mean_move_interval_s = 10.0;
  cfg.horizon_events = 400;
  cfg.resolve_every = 100;
  cfg.readmit_every = 32;
  cfg.seed = 17;
  return cfg;
}

TEST(Churn, TimelineIsDeterministic) {
  const ChurnConfig cfg = small_config();
  const ChurnTimeline a = build_churn_timeline(cfg);
  const ChurnTimeline b = build_churn_timeline(cfg);
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_EQ(a.events.size(), cfg.horizon_events);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].ue, b.events[i].ue);
    EXPECT_EQ(a.events[i].slot, b.events[i].slot);
    EXPECT_EQ(a.events[i].prev_slot, b.events[i].prev_slot);
    EXPECT_EQ(a.events[i].time_s, b.events[i].time_s);
  }
  EXPECT_EQ(a.universe.num_ues(), b.universe.num_ues());
  EXPECT_EQ(a.num_logical_ues, b.num_logical_ues);
  // One slot per arrival plus one per move; event times never decrease.
  double last = 0.0;
  std::size_t arrivals = 0, moves = 0;
  for (const ChurnEvent& e : a.events) {
    EXPECT_GE(e.time_s, last);
    last = e.time_s;
    if (e.kind == ChurnEventKind::kArrival) ++arrivals;
    if (e.kind == ChurnEventKind::kMove) ++moves;
  }
  EXPECT_EQ(a.universe.num_ues(), arrivals + moves);
}

TEST(Churn, HugeRatePrefillStopsAtTheHorizon) {
  // λ × dwell past every count: the target clamps to 2^53 instead of an
  // out-of-range cast, and a prefill beyond the horizon builds the same
  // timeline as a prefill of exactly the horizon — prefill arrivals all
  // sit at t = 0 ahead of everything else, so no later one is applied.
  ChurnConfig cfg = small_config();
  cfg.arrival_rate_hz = 1e30;
  cfg.horizon_events = 50;
  EXPECT_EQ(cfg.steady_state_target(), std::size_t{1} << 53);
  cfg.prefill = cfg.steady_state_target();
  const ChurnTimeline huge = build_churn_timeline(cfg);
  cfg.prefill = cfg.horizon_events;
  const ChurnTimeline exact = build_churn_timeline(cfg);
  ASSERT_EQ(huge.events.size(), 50u);
  ASSERT_EQ(exact.events.size(), 50u);
  for (std::size_t i = 0; i < huge.events.size(); ++i) {
    EXPECT_EQ(huge.events[i].kind, ChurnEventKind::kArrival);
    EXPECT_EQ(huge.events[i].ue, i);
    EXPECT_EQ(huge.events[i].time_s, 0.0);
    EXPECT_EQ(huge.events[i].slot, exact.events[i].slot);
  }
  EXPECT_EQ(huge.universe.num_ues(), 50u);
  EXPECT_EQ(huge.num_logical_ues, exact.num_logical_ues);
  cfg.prefill = cfg.steady_state_target();
  const ChurnResult r = run_churn(cfg);
  EXPECT_EQ(r.stats.events, 50u);
}

TEST(Churn, RunIsDeterministicAndTracingInvariant) {
  const ChurnConfig cfg = small_config();
  const ChurnResult untraced = run_churn(cfg);

  obs::TraceRecorder rec;
  ChurnResult traced;
  {
    obs::ScopedTraceRecorder install(&rec);
    traced = run_churn(cfg);
  }
  // Tracing must not perturb any deterministic surface.
  EXPECT_EQ(untraced.event_log, traced.event_log);
  EXPECT_EQ(untraced.final_allocation, traced.final_allocation);
  EXPECT_EQ(untraced.stats.events, traced.stats.events);
  EXPECT_EQ(untraced.stats.reassociations, traced.stats.reassociations);
  EXPECT_EQ(untraced.stats.final_profit, traced.stats.final_profit);

  // One RoundRow per applied event, all from this driver.
  ASSERT_EQ(rec.rows().size(), traced.stats.events);
  for (const obs::RoundRow& row : rec.rows()) EXPECT_EQ(row.source, "sim/churn");
  // Every applied event narrates itself on the timeline track.
  std::size_t timeline_events = 0;
  for (const obs::TraceEvent& e : rec.events())
    if (e.kind == obs::EventKind::kTimeline) ++timeline_events;
  EXPECT_EQ(timeline_events, traced.stats.events);
}

TEST(Churn, StatsAreInternallyConsistent) {
  const ChurnResult r = run_churn(small_config());
  const ChurnStats& s = r.stats;
  EXPECT_EQ(s.events, s.arrivals + s.departures + s.moves);
  EXPECT_EQ(s.final_active, s.arrivals - s.departures);
  EXPECT_EQ(s.final_active, s.final_served + s.final_cloud);
  EXPECT_GT(s.moves, 0u);
  EXPECT_LE(s.reassociations, s.moves + s.orphaned_ues);
  EXPECT_LE(s.cross_region_moves, s.moves);
  EXPECT_GE(s.peak_active, s.final_active);
  EXPECT_EQ(s.resolves, small_config().horizon_events / 100);
}

TEST(Churn, FinalAllocationIsFeasibleAndProfitMatches) {
  const ChurnConfig cfg = small_config();
  const ChurnTimeline timeline = build_churn_timeline(cfg);
  const ChurnResult r = run_churn(timeline, cfg);
  const FeasibilityReport report = check_feasibility(timeline.universe, r.final_allocation);
  EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
  const double recomputed = total_profit(timeline.universe, r.final_allocation);
  EXPECT_NEAR(r.stats.final_profit, recomputed,
              1e-9 * std::max(1.0, std::abs(recomputed)));
}

// Departure conservation: every release is recounted by the auditor's
// ledger cross-check after every event (round 0 keeps it stateless). A
// short dwell maximizes departures through the audited window.
TEST(Churn, AuditedHighChurnRunIsClean) {
  ChurnConfig cfg = small_config();
  cfg.mean_dwell_s = 5.0;  // heavy departure traffic
  check::InvariantAuditor auditor;
  audit::ScopedAuditObserver install(&auditor);
  ChurnResult r;
  EXPECT_NO_THROW(r = run_churn(cfg));
  EXPECT_GT(r.stats.departures, 50u);
}

TEST(Churn, AuditedFaultRunIsClean) {
  ChurnConfig cfg = small_config();
  cfg.prefill = 200;  // crash lands on a loaded deployment
  FaultSpec faults;
  faults.crashes = 1;
  faults.crash_round = 120;   // event index on the serving timeline
  faults.down_rounds = 150;   // recovers at event 270
  faults.seed = 3;
  cfg.faults = faults;
  check::InvariantAuditor auditor;
  audit::ScopedAuditObserver install(&auditor);
  ChurnResult r;
  EXPECT_NO_THROW(r = run_churn(cfg));
  EXPECT_EQ(r.stats.crashes, 1u);
  EXPECT_EQ(r.stats.recoveries, 1u);
  EXPECT_GT(r.stats.orphaned_ues, 0u);
  EXPECT_GE(r.stats.recovery_events_max, 1u);
  // Crash evictions are reassociations (served → cloud).
  EXPECT_GE(r.stats.reassociations, r.stats.orphaned_ues);
}

TEST(Churn, FaultSameSeedIsByteIdentical) {
  ChurnConfig cfg = small_config();
  FaultSpec faults;
  faults.crashes = 2;
  faults.crash_round = 80;
  faults.down_rounds = 100;
  faults.degradations = 1;
  faults.degrade_round = 50;
  faults.seed = 11;
  cfg.faults = faults;
  const ChurnResult a = run_churn(cfg);
  const ChurnResult b = run_churn(cfg);
  EXPECT_EQ(a.event_log, b.event_log);
  EXPECT_EQ(a.final_allocation, b.final_allocation);
  EXPECT_EQ(a.stats.readmitted, b.stats.readmitted);
  EXPECT_EQ(a.stats.recovery_events_max, b.stats.recovery_events_max);
}

// A degradation scales only *remaining* capacity, so factor 1.0 is a
// no-op: UEs leaving the "degraded" BS must still return what they held,
// and every decision must match the fault-free run.
TEST(Churn, UnitDegradationChangesNoDecision) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChurnConfig cfg = test::serving_probe_config(seed);
    cfg.horizon_events = cfg.prefill + 1500;
    cfg.faults.reset();
    const ChurnResult clean = run_churn(cfg);
    FaultSpec unit;
    unit.degradations = 1;
    unit.degrade_factor = 1.0;
    unit.degrade_round = cfg.prefill + 100;
    unit.seed = seed;
    cfg.faults = unit;
    const ChurnResult degraded = run_churn(cfg);
    EXPECT_EQ(degraded.stats.degradations, 1u);
    EXPECT_EQ(degraded.final_allocation, clean.final_allocation);
    EXPECT_EQ(degraded.stats.final_profit, clean.stats.final_profit);
  }
}

// Moves off is the static mobility model: the timeline never moves a UE,
// so each one departs from the slot it arrived on.
TEST(StaticModel, NeverMoves) {
  ChurnConfig cfg = small_config();
  cfg.mean_move_interval_s = 0.0;
  const ChurnTimeline timeline = build_churn_timeline(cfg);
  std::vector<std::uint32_t> slot_of(timeline.num_logical_ues, kNoChurnSlot);
  std::size_t arrivals = 0, departures = 0;
  for (const ChurnEvent& e : timeline.events) {
    EXPECT_NE(e.kind, ChurnEventKind::kMove);
    if (e.kind == ChurnEventKind::kArrival) {
      slot_of[e.ue] = e.slot;
      ++arrivals;
    }
    if (e.kind == ChurnEventKind::kDeparture) {
      EXPECT_EQ(e.slot, slot_of[e.ue]);
      ++departures;
    }
  }
  EXPECT_GT(departures, 0u);
  EXPECT_EQ(timeline.universe.num_ues(), arrivals);  // one slot per UE
}

// ---- handover: waypoint moves served live -----------------------------------

/// A static population (no arrivals or departures) of 300 UEs, each taking
/// a waypoint move every 2 s on average: six moves per UE.
ChurnConfig moving_population(double speed_min, double speed_max) {
  ChurnConfig cfg;
  cfg.arrival_rate_hz = 0.0;
  cfg.mean_dwell_s = 1e9;  // nobody departs within the run
  cfg.prefill = 300;
  cfg.mean_move_interval_s = 2.0;
  cfg.waypoint.speed_min_mps = speed_min;
  cfg.waypoint.speed_max_mps = speed_max;
  cfg.horizon_events = cfg.prefill * 7;
  cfg.seed = 4;
  return cfg;
}

// Without moves or crashes no settled UE changes BS: departures free
// capacity, and the readmit sweeps and re-solves that follow place only
// cloud dwellers.
TEST(Handover, StaticPopulationNeverHandsOver) {
  ChurnConfig cfg = moving_population(0.5, 1.0);
  cfg.mean_move_interval_s = 0.0;
  cfg.horizon_events = cfg.prefill;
  ChurnStats s = run_churn(cfg).stats;
  EXPECT_EQ(s.moves, 0u);
  EXPECT_EQ(s.reassociations, 0u);

  cfg = test::serving_probe_config(5);  // overloaded: cloud dwellers wait
  cfg.mean_move_interval_s = 0.0;
  cfg.faults.reset();
  s = run_churn(cfg).stats;
  EXPECT_EQ(s.moves, 0u);
  EXPECT_GT(s.departures, 0u);
  EXPECT_GT(s.readmitted, 0u);
  EXPECT_GT(s.resolves, 0u);
  EXPECT_EQ(s.reassociations, 0u);
}

TEST(Handover, MovingPopulationChurns) {
  const ChurnConfig cfg = moving_population(10.0, 20.0);
  const ChurnTimeline timeline = build_churn_timeline(cfg);
  // Every move takes the UE somewhere else.
  for (const ChurnEvent& e : timeline.events) {
    if (e.kind != ChurnEventKind::kMove) continue;
    EXPECT_GT(distance_m(timeline.universe.ue(UeId{e.prev_slot}).position,
                         timeline.universe.ue(UeId{e.slot}).position),
              0.0);
  }
  const ChurnStats s = run_churn(timeline, cfg).stats;
  EXPECT_EQ(s.moves, cfg.prefill * 6);
  EXPECT_GT(s.reassociations, 0u);
  EXPECT_GT(s.churn_rate(), 0.0);
}

// A faster walk carries a UE further from the BS it was admitted to, so
// more of its moves land on another BS.
TEST(Handover, FasterMovementMeansMoreChurn) {
  const auto reassociations_per_move = [](double speed_min, double speed_max) {
    const ChurnConfig cfg = moving_population(speed_min, speed_max);
    const ChurnStats s = run_churn(cfg).stats;
    EXPECT_EQ(s.departures, 0u);
    EXPECT_EQ(s.moves, cfg.prefill * 6);
    return static_cast<double>(s.reassociations) / static_cast<double>(s.moves);
  };
  EXPECT_GT(reassociations_per_move(20.0, 30.0), reassociations_per_move(0.5, 1.0));
}

// The live allocation after each round of moves (one per UE on average)
// is feasible and carries the profit the run reports.
TEST(Handover, EveryStepAllocationIsFeasible) {
  ChurnConfig cfg = moving_population(5.0, 15.0);
  cfg.prefill = 150;
  for (std::size_t step = 1; step <= 6; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    cfg.horizon_events = cfg.prefill * (step + 1);
    const ChurnTimeline timeline = build_churn_timeline(cfg);
    const ChurnResult r = run_churn(timeline, cfg);
    EXPECT_EQ(r.stats.moves, cfg.prefill * step);
    const FeasibilityReport report = check_feasibility(timeline.universe, r.final_allocation);
    EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
    EXPECT_GT(r.stats.final_profit, 0.0);
    const double recomputed = total_profit(timeline.universe, r.final_allocation);
    EXPECT_NEAR(r.stats.final_profit, recomputed, 1e-9 * std::max(1.0, std::abs(recomputed)));
  }
}

TEST(Handover, Deterministic) {
  const ChurnConfig cfg = moving_population(5.0, 15.0);
  const ChurnResult a = run_churn(cfg);
  const ChurnResult b = run_churn(cfg);
  EXPECT_EQ(a.event_log, b.event_log);
  EXPECT_EQ(a.final_allocation, b.final_allocation);
  EXPECT_EQ(a.stats.reassociations, b.stats.reassociations);
  // The seed drives the walks: another seed takes other paths.
  ChurnConfig other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_NE(run_churn(other).event_log, a.event_log);
}

TEST(Churn, LiveProfitSumEqualsTheUniverseWalkBitForBit) {
  // The periodic re-solve prices its scratch allocation over the
  // proposers only (total_profit_over). On a churn universe where only
  // the listed slots are served, that must be total_profit's walk of the
  // whole universe to the last bit.
  ChurnConfig cfg = small_config();
  cfg.horizon_events = 3000;
  const ChurnTimeline timeline = build_churn_timeline(cfg);
  const Scenario& universe = timeline.universe;
  ASSERT_GT(universe.num_sps(), 1u);
  Rng rng("live-profit", 3);
  for (int trial = 0; trial < 20; ++trial) {
    Allocation alloc(universe.num_ues());
    std::vector<UeId> listed;
    for (std::size_t ui = 0; ui < universe.num_ues(); ++ui) {
      const UeId u{static_cast<std::uint32_t>(ui)};
      if (rng.uniform_int(0, 3) != 0) continue;  // unlisted: stays at the cloud
      listed.push_back(u);
      const auto cands = universe.candidates(u);
      if (cands.empty() || rng.uniform_int(0, 4) == 0) continue;
      alloc.assign(u, cands[static_cast<std::size_t>(
                          rng.uniform_int(0, static_cast<std::int64_t>(cands.size()) - 1))]);
    }
    ASSERT_GT(alloc.num_served(), 0u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(total_profit_over(universe, alloc, listed)),
              std::bit_cast<std::uint64_t>(total_profit(universe, alloc)))
        << "trial " << trial;
  }
}

TEST(Churn, ZeroArrivalDegenerate) {
  ChurnConfig cfg;
  cfg.arrival_rate_hz = 0.0;
  cfg.prefill = 0;
  cfg.horizon_events = 100;
  const ChurnResult r = run_churn(cfg);
  EXPECT_EQ(r.stats.events, 0u);
  EXPECT_EQ(r.stats.universe_slots, 0u);
  EXPECT_EQ(r.final_allocation.num_ues(), 0u);
  EXPECT_EQ(r.latency.count(), 0u);
  EXPECT_EQ(r.event_log, "final events=0 active=0 served=0 cloud=0 profit=0\n");
}

TEST(Churn, ZeroDwellDegenerate) {
  ChurnConfig cfg;
  cfg.arrival_rate_hz = 5.0;
  cfg.mean_dwell_s = 0.0;  // depart the instant they arrive
  cfg.horizon_events = 100;
  cfg.seed = 5;
  check::InvariantAuditor auditor;
  audit::ScopedAuditObserver install(&auditor);
  ChurnResult r;
  EXPECT_NO_THROW(r = run_churn(cfg));
  // Arrivals and departures interleave one-for-one.
  EXPECT_EQ(r.stats.final_active, r.stats.arrivals - r.stats.departures);
  EXPECT_LE(r.stats.final_active, 1u);
  EXPECT_EQ(r.stats.moves, 0u);
  EXPECT_NEAR(r.stats.final_profit,
              total_profit(build_churn_timeline(cfg).universe, r.final_allocation), 1e-9);
}

TEST(Churn, PrefillArrivesAtTimeZeroAndCountsTowardHorizon) {
  ChurnConfig cfg;
  cfg.arrival_rate_hz = 0.0;  // prefill only
  cfg.mean_dwell_s = 50.0;
  cfg.prefill = 60;
  cfg.horizon_events = 60;
  const ChurnResult r = run_churn(cfg);
  EXPECT_EQ(r.stats.events, 60u);
  EXPECT_EQ(r.stats.arrivals, 60u);
  EXPECT_EQ(r.stats.final_active, 60u);
  const ChurnTimeline timeline = build_churn_timeline(cfg);
  for (const ChurnEvent& e : timeline.events) EXPECT_EQ(e.time_s, 0.0);
}

TEST(Churn, SteadyStateTargetIsRateTimesDwell) {
  ChurnConfig cfg;
  cfg.arrival_rate_hz = 20.0;
  cfg.mean_dwell_s = 100.0;
  EXPECT_EQ(cfg.steady_state_target(), 2000u);
  cfg.arrival_rate_hz = 0.0;
  EXPECT_EQ(cfg.steady_state_target(), 0u);
}

}  // namespace
}  // namespace dmra
