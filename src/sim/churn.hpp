// Allocator-as-a-service: the long-horizon, event-driven serving driver
// (docs/SERVING.md).
//
// Production MEC is not a batch problem: UEs arrive, dwell, move, and
// leave while the allocator keeps serving. This module turns the paper's
// "continuously adjust" remark (§V) into that regime — a deterministic
// seeded event timeline of
//   * Poisson arrivals        (exponential inter-arrival times),
//   * dwell-time departures   (exponential dwell per UE),
//   * mobility re-associations (random-waypoint moves, src/mobility),
// applied one event at a time through a persistent IncrementalAllocator
// (core/incremental.hpp) with the InvariantAuditor live at the audit
// seam. It is the repo's one serving driver: DMRA's built-in Eq. 17 rule
// decides by default, and any one-shot Allocator can decide instead
// (IncrementalConfig::rule). It measures what a service operator cares
// about: per-decision p50/p99/p999 latency, re-allocation churn,
// steady-state profit against a periodic from-scratch re-solve, and
// recovery time after injected faults (sim/faults plans interpreted on
// the event timeline).
//
// Determinism contract (docs/SERVING.md): the event timeline, every
// allocation decision, and the event log are pure functions of
// (ChurnConfig, seed) — byte-identical across reruns and across --jobs
// values. Wall-clock latency lives only in the LatencyHistogram
// (obs/latency.hpp) and the metrics timers, outside every deterministic
// surface.
//
// Scenario immutability is squared with a dynamic population via a *slot
// universe*: the whole timeline is generated first, every (logical UE,
// position epoch) becomes one scenario slot with precomputed links, and
// replay activates/deactivates slots through the allocator. A mobility
// event retires the UE's old slot and admits its new one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/incremental.hpp"
#include "mec/scenario.hpp"
#include "mobility/models.hpp"
#include "obs/latency.hpp"
#include "sim/faults.hpp"
#include "workload/generator.hpp"

namespace dmra {

/// Sentinel slot id for "no slot" (e.g. ChurnEvent::prev_slot outside
/// kMove events).
inline constexpr std::uint32_t kNoChurnSlot = 0xffffffffu;

enum class ChurnEventKind : std::uint8_t {
  kArrival,    ///< logical UE enters; its slot is admitted
  kDeparture,  ///< logical UE leaves; its slot is removed
  kMove,       ///< waypoint re-association: prev_slot retires, slot admits
};

std::string_view to_string(ChurnEventKind kind);

/// One timeline entry. `slot` is the universe slot the event acts on;
/// kMove additionally names the slot it vacates.
struct ChurnEvent {
  ChurnEventKind kind = ChurnEventKind::kArrival;
  std::uint32_t ue = 0;                    ///< logical UE id (stable across moves)
  std::uint32_t slot = 0;                  ///< universe slot acted on
  std::uint32_t prev_slot = kNoChurnSlot;  ///< kMove: the slot vacated
  double time_s = 0.0;                     ///< simulation time of the event
};

struct ChurnConfig {
  /// Deployment template (SPs, BSs, channel, pricing). num_ues is
  /// ignored — the population comes from the event timeline.
  ScenarioConfig deployment;

  double arrival_rate_hz = 5.0;  ///< Poisson arrival rate λ (UEs per second)
  double mean_dwell_s = 100.0;   ///< exponential dwell; <= 0 → immediate departure
  /// Mean time between waypoint re-association events per active UE;
  /// 0 disables mobility (static dwellers).
  double mean_move_interval_s = 0.0;
  /// UEs admitted as arrivals at t = 0 (these count toward the horizon,
  /// so at most horizon_events of them arrive).
  /// steady_state_target() is the natural choice for steady-state runs.
  std::size_t prefill = 0;

  std::size_t horizon_events = 1000;  ///< stop after this many applied events

  /// Every this-many events, run a muted from-scratch solve_dmra_partial
  /// over the active population and record the live-vs-scratch profit
  /// gap. 0 disables the baseline.
  std::size_t resolve_every = 0;
  /// Every this-many events, retry placement for the active
  /// cloud-forwarded UEs with candidates that capacity freed since the
  /// last sweep can now carry (IncrementalAllocator::readmit_waiting:
  /// the same placements as retrying all of them). 0 disables the sweep.
  std::size_t readmit_every = 64;
  /// Crash orphans get one re-placement attempt each, drained this many
  /// per event (the recovery backlog; docs/SERVING.md).
  std::size_t recovery_batch = 4;

  /// partition_regions() region count for coverage-class accounting
  /// (interior / boundary / cloud-only slots, cross-region moves).
  std::size_t regions = 4;

  std::uint64_t seed = 1;
  IncrementalConfig incremental;

  /// Per-decision latency objective in ns (p99 over each SLO window);
  /// 0 disables SLO tracking. Wall-clock-driven: the report it feeds
  /// (ChurnSloReport) lives OUTSIDE every deterministic surface, and an
  /// SLO-breach flight-recorder dump is marked deterministic=false.
  std::uint64_t slo_p99_ns = 0;
  /// Applied events per SLO evaluation window.
  std::size_t slo_window_events = 256;

  /// Fault plan injected on the event timeline: FaultPlan rounds are
  /// interpreted as event indices (docs/RESILIENCE.md). Link faults
  /// (loss/dup/delay) are bus-level and do not apply to the direct
  /// serving path — only crashes and degradations fire here.
  std::optional<FaultSpec> faults;

  /// Waypoint process for kMove events; the area is overridden with the
  /// deployment's area at timeline build.
  RandomWaypointConfig waypoint;

  /// λ × mean dwell, rounded — the expected steady-state population —
  /// at most 2^53.
  std::size_t steady_state_target() const;
};

/// The pre-generated deterministic timeline: the slot universe (one
/// scenario slot per logical-UE position epoch) and the event sequence
/// replayed over it. Pure function of the config (including seed).
struct ChurnTimeline {
  Scenario universe;
  std::vector<ChurnEvent> events;
  std::size_t num_logical_ues = 0;
};

ChurnTimeline build_churn_timeline(const ChurnConfig& config);

/// Deterministic serving outcomes (all pure functions of the config).
struct ChurnStats {
  std::size_t events = 0;  ///< applied events (≤ horizon; the stream may drain)
  std::size_t arrivals = 0;
  std::size_t departures = 0;
  std::size_t moves = 0;

  std::size_t admitted_to_bs = 0;     ///< admissions decided onto a BS
  std::size_t admitted_to_cloud = 0;  ///< admissions decided cloud
  /// Settled (BS-served) UEs whose assignment moved: mobility
  /// re-associations landing elsewhere plus crash evictions. The churn
  /// numerator (docs/SERVING.md).
  std::size_t reassociations = 0;
  std::size_t cross_region_moves = 0;  ///< kMove crossing a partition class
  std::size_t readmitted = 0;          ///< cloud dwellers later placed on a BS

  std::size_t crashes = 0;
  std::size_t recoveries = 0;
  std::size_t degradations = 0;
  std::size_t orphaned_ues = 0;  ///< UEs evicted by crashes
  /// Longest / summed recovery episodes, in events: from a crash until
  /// every orphan of the backlog got its re-placement attempt.
  std::size_t recovery_events_max = 0;
  std::size_t recovery_events_total = 0;

  std::size_t resolves = 0;     ///< periodic from-scratch baselines run
  double resolve_gap_max = 0.0;   ///< max (scratch − live)/scratch, clamped ≥ 0
  double resolve_gap_last = 0.0;  ///< gap at the last baseline

  double final_profit = 0.0;  ///< live Eq. 11 profit after the last event
  std::size_t final_active = 0;
  std::size_t final_served = 0;
  std::size_t final_cloud = 0;  ///< active but cloud-forwarded at the end
  std::size_t peak_active = 0;

  std::size_t universe_slots = 0;
  std::size_t boundary_slots = 0;    ///< partition class kBoundary
  std::size_t cloud_only_slots = 0;  ///< partition class kCloudOnly

  /// Re-allocation churn rate: settled-assignment moves per applied event.
  double churn_rate() const {
    return events == 0 ? 0.0
                       : static_cast<double>(reassociations) / static_cast<double>(events);
  }
};

/// SLO accounting over the serving run (ChurnConfig::slo_p99_ns).
/// Entirely wall-clock-derived: NEVER folded into ChurnStats, the event
/// log, or any CSV that is golden-tested — same rule as the latency
/// histogram it is computed from.
struct ChurnSloReport {
  std::uint64_t objective_p99_ns = 0;  ///< 0 = SLO tracking disabled
  std::size_t windows = 0;             ///< evaluation windows completed
  std::size_t breached_windows = 0;    ///< windows whose p99 exceeded the objective
  double worst_window_p99_ns = 0.0;
  /// Error-budget burn rate over the whole run: fraction of decisions
  /// above the objective divided by the 1% budget a p99 objective
  /// implies (> 1 = burning faster than the budget allows).
  double burn_rate = 0.0;
};

struct ChurnResult {
  ChurnStats stats;
  ChurnSloReport slo;
  /// Per-event decision latency (wall clock — excluded from every
  /// deterministic surface, warn-only in tools/bench_diff.py).
  obs::LatencyHistogram latency;
  /// One line per applied event (plus fault/readmit/resolve/final lines):
  /// the deterministic byte surface same-seed runs must reproduce
  /// exactly (docs/SERVING.md grammar).
  std::string event_log;
  Allocation final_allocation{0};
};

/// Replay the config's timeline through a persistent IncrementalAllocator.
/// Deterministic per config except for ChurnResult::latency.
ChurnResult run_churn(const ChurnConfig& config);

/// Convenience: run_churn over an already-built timeline (lets callers
/// reuse one universe across probes; run_churn builds then delegates).
ChurnResult run_churn(const ChurnTimeline& timeline, const ChurnConfig& config);

}  // namespace dmra
