#include "sim/churn.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <memory>
#include <queue>
#include <string>
#include <utility>

#include "core/solver.hpp"
#include "mec/audit.hpp"
#include "obs/flight.hpp"
#include "obs/recorder.hpp"
#include "util/require.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

/// Event-log bytes reserved per timeline event. The benchmark's replays
/// write 69-85 B per event (the event's line plus its share of the fault,
/// recover, readmit and resolve lines), so the log is allocated once
/// instead of doubling, which holds the old and new buffers at once.
constexpr std::size_t kEventLogBytesPerEvent = 128;

// Shortest round-trip formatting (std::to_chars), the same idiom the round
// CSV exporter uses: the event log is a deterministic byte surface, so no
// locale- or precision-dependent formatting may touch it.
void append_num(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_num(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// Inverse-CDF exponential draw with the given mean; mean <= 0 yields 0
/// (the degenerate immediate-departure / back-to-back cases).
double exp_draw(Rng& rng, double mean) {
  if (mean <= 0.0) return 0.0;
  const double u = rng.uniform_real(0.0, 1.0);  // [0, 1) → 1-u in (0, 1]
  return -mean * std::log(1.0 - u);
}

/// Timeline-generation heap entry. Min-ordered by (time, seq): seq is the
/// push order, so simultaneous events (zero dwell, the departures of the
/// prefill) resolve deterministically in scheduling order.
struct Pending {
  double time = 0.0;
  std::uint64_t seq = 0;
  ChurnEventKind kind = ChurnEventKind::kArrival;
  std::uint32_t ue = 0;
  bool chained = false;  ///< kArrival: schedules the next Poisson arrival
};

struct PendingAfter {
  bool operator()(const Pending& a, const Pending& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Per-logical-UE generation state while its dwell is in progress.
struct UeGen {
  bool alive = false;
  std::uint32_t slot = 0;
  double dwell_end = 0.0;
  double last_time = 0.0;  ///< simulation time of the model's position
  std::unique_ptr<MobilityModel> model;
  SpId sp{0};
  ServiceId service{0};
  std::uint32_t cru_demand = 0;
  double rate_demand_bps = 0.0;
};

}  // namespace

std::string_view to_string(ChurnEventKind kind) {
  switch (kind) {
    case ChurnEventKind::kArrival: return "arrival";
    case ChurnEventKind::kDeparture: return "departure";
    case ChurnEventKind::kMove: return "move";
  }
  return "?";
}

std::size_t ChurnConfig::steady_state_target() const {
  // Clamped in floating point (to 2^53, exact in a double) so the cast is
  // defined for every finite rate and dwell.
  constexpr double kMaxTarget = 9007199254740992.0;
  const double target = arrival_rate_hz * mean_dwell_s;
  if (!(target > 0.0)) return 0;
  return static_cast<std::size_t>(std::min(target + 0.5, kMaxTarget));
}

ChurnTimeline build_churn_timeline(const ChurnConfig& config) {
  DMRA_REQUIRE(config.arrival_rate_hz >= 0.0);

  // The deployment (SPs, BSs, channel, pricing) comes straight from the
  // workload generator with an empty population: the BS grid of a churn
  // run at seed s is the BS grid of every batch run at seed s.
  ScenarioConfig deployment = config.deployment;
  deployment.num_ues = 0;
  const Scenario base = generate_scenario(deployment, config.seed);

  // Independent named streams: adding draws to one process (say mobility)
  // must not move another's (arrivals).
  const Rng root("churn", config.seed);
  Rng arrival_rng = root.child("arrivals");
  Rng dwell_rng = root.child("dwell");
  Rng attr_rng = root.child("attrs");
  Rng move_rng = root.child("moves");
  const Rng waypoint_root = root.child("waypoints");

  RandomWaypointConfig waypoint = config.waypoint;
  waypoint.area = config.deployment.area();
  const double side = config.deployment.area_side_m;
  const double inter_arrival_mean =
      config.arrival_rate_hz > 0.0 ? 1.0 / config.arrival_rate_hz : 0.0;

  std::priority_queue<Pending, std::vector<Pending>, PendingAfter> heap;
  std::uint64_t seq = 0;
  const auto push = [&](double time, ChurnEventKind kind, std::uint32_t ue,
                        bool chained = false) {
    heap.push(Pending{time, seq++, kind, ue, chained});
  };

  // An event makes at most one slot and one logical UE, so no table
  // outgrows the horizon.
  std::vector<ChurnEvent> events;
  std::vector<UserEquipment> slots;
  std::vector<UeGen> gens;
  events.reserve(config.horizon_events);
  slots.reserve(config.horizon_events);
  gens.reserve(config.horizon_events);

  const auto new_slot = [&](const UeGen& g, Point pos) {
    const auto id = static_cast<std::uint32_t>(slots.size());
    slots.push_back(UserEquipment{UeId{id}, g.sp, pos, g.service, g.cru_demand,
                                  g.rate_demand_bps});
    return id;
  };

  const auto arrive = [&](double time, std::uint32_t ue) {
    if (gens.size() <= ue) gens.resize(ue + 1);
    UeGen& g = gens[ue];
    g.alive = true;
    // Attribute draws mirror the generator's §VI-A ranges.
    g.sp = SpId{static_cast<std::uint32_t>(attr_rng.index(base.num_sps()))};
    g.service = ServiceId{static_cast<std::uint32_t>(attr_rng.index(base.num_services()))};
    g.cru_demand = static_cast<std::uint32_t>(attr_rng.uniform_int(
        config.deployment.cru_demand_min, config.deployment.cru_demand_max));
    g.rate_demand_bps = attr_rng.uniform_real(config.deployment.rate_demand_min_bps,
                                              config.deployment.rate_demand_max_bps);
    const Point pos{attr_rng.uniform_real(0.0, side), attr_rng.uniform_real(0.0, side)};
    g.slot = new_slot(g, pos);
    g.dwell_end = time + exp_draw(dwell_rng, config.mean_dwell_s);
    events.push_back({ChurnEventKind::kArrival, ue, g.slot, kNoChurnSlot, time});
    push(g.dwell_end, ChurnEventKind::kDeparture, ue);
    if (config.mean_move_interval_s > 0.0) {
      std::string name = "ue";
      name += std::to_string(ue);
      g.model = make_random_waypoint({pos}, waypoint, waypoint_root.child(name));
      g.last_time = time;
      const double move_at = time + exp_draw(move_rng, config.mean_move_interval_s);
      if (move_at < g.dwell_end) push(move_at, ChurnEventKind::kMove, ue);
    }
  };

  // The prefill is UEs 0..prefill-1 arriving at t = 0: the earliest time
  // and, had they been pushed, the smallest seqs, so they pop before
  // anything else and are applied in id order without the heap. Only the
  // first horizon_events of them can ever be applied. The chained
  // arrival's first draw comes before them, so every RNG stream keeps its
  // draw order.
  const auto prefill =
      static_cast<std::uint32_t>(std::min(config.prefill, config.horizon_events));
  std::uint32_t next_ue = prefill;
  if (config.arrival_rate_hz > 0.0)
    push(exp_draw(arrival_rng, inter_arrival_mean), ChurnEventKind::kArrival,
         next_ue++, /*chained=*/true);
  for (std::uint32_t ue = 0; ue < prefill; ++ue) arrive(0.0, ue);

  while (events.size() < config.horizon_events && !heap.empty()) {
    const Pending p = heap.top();
    heap.pop();
    switch (p.kind) {
      case ChurnEventKind::kArrival: {
        if (p.chained)
          push(p.time + exp_draw(arrival_rng, inter_arrival_mean),
               ChurnEventKind::kArrival, next_ue++, /*chained=*/true);
        arrive(p.time, p.ue);
        break;
      }
      case ChurnEventKind::kDeparture: {
        UeGen& g = gens[p.ue];
        if (!g.alive) break;
        events.push_back(
            {ChurnEventKind::kDeparture, p.ue, g.slot, kNoChurnSlot, p.time});
        g.alive = false;
        g.model.reset();
        break;
      }
      case ChurnEventKind::kMove: {
        UeGen& g = gens[p.ue];
        if (!g.alive) break;  // departed before its move fired
        g.model->advance(p.time - g.last_time);
        g.last_time = p.time;
        const Point pos = g.model->positions()[0];
        const std::uint32_t prev = g.slot;
        g.slot = new_slot(g, pos);
        events.push_back(
            {ChurnEventKind::kMove, p.ue, g.slot, prev, p.time});
        const double move_at =
            p.time + exp_draw(move_rng, config.mean_move_interval_s);
        if (move_at < g.dwell_end) push(move_at, ChurnEventKind::kMove, p.ue);
        break;
      }
    }
  }
  // Rebuild the scenario with the slot population appended: same
  // deployment, every link/candidate/price precomputed once for the whole
  // horizon. (Scenario is immutable — this is the one construction.)
  ScenarioData data;
  data.num_services = base.num_services();
  data.sps.assign(base.sps().begin(), base.sps().end());
  data.bss.assign(base.bss().begin(), base.bss().end());
  data.ues = std::move(slots);
  data.channel = base.channel();
  data.ofdma = base.ofdma();
  data.pricing = base.pricing();
  data.coverage_radius_m = base.coverage_radius_m();
  return ChurnTimeline{Scenario(std::move(data)), std::move(events), next_ue};
}

ChurnResult run_churn(const ChurnTimeline& timeline, const ChurnConfig& config) {
  const Scenario& universe = timeline.universe;
  const RegionPartition partition = partition_regions(universe, config.regions);

  ChurnResult result;
  ChurnStats& stats = result.stats;
  stats.universe_slots = universe.num_ues();
  for (const std::uint32_t r : partition.ue_region) {
    if (r == RegionPartition::kBoundary) ++stats.boundary_slots;
    if (r == RegionPartition::kCloudOnly) ++stats.cloud_only_slots;
  }

  IncrementalAllocator alloc(universe, config.incremental);

  // Flight recorder: sized for the whole slot universe up front so replay
  // never grows a per-agent counter. The lifecycle ops (crash_bs,
  // recover_bs, degrade_bs) record their own flight events and the crash
  // trigger fires inside core/incremental — replay only adds the
  // per-event timeline narrative, counters, and round aggregates.
  obs::FlightRecorder* const fr = obs::flight();
  if (fr != nullptr) fr->reserve_agents(universe.num_ues(), universe.num_bss());
  // The per-event and per-readmission metrics, interned: each handle finds
  // its registry entry once. Used only while fr != nullptr.
  obs::MetricsRegistry* const fm = fr != nullptr ? &fr->metrics() : nullptr;
  obs::CounterHandle m_arrivals(fm, "churn.arrivals"), m_departures(fm, "churn.departures"),
      m_moves(fm, "churn.moves"), m_readmitted(fm, "churn.readmitted");
  obs::GaugeHandle m_active(fm, "churn.active"), m_cloud_active(fm, "churn.cloud_active");

  // SLO tracking (ChurnConfig::slo_p99_ns): wall-clock-driven, so the
  // report and any breach-triggered dump stay OUTSIDE the deterministic
  // surfaces (the dump is marked deterministic=false).
  result.slo.objective_p99_ns = config.slo_p99_ns;
  obs::LatencyHistogram slo_window;
  std::size_t slo_window_count = 0;
  const auto close_slo_window = [&](std::size_t idx) {
    if (slo_window_count == 0) return;
    ++result.slo.windows;
    const double p99 = slo_window.percentile_ns(0.99);
    if (p99 > result.slo.worst_window_p99_ns) result.slo.worst_window_p99_ns = p99;
    if (p99 > static_cast<double>(config.slo_p99_ns)) {
      ++result.slo.breached_windows;
      if (fr != nullptr)
        fr->trigger("slo-breach", idx, obs::kNoId, obs::kNoId,
                    /*deterministic=*/false);
    }
    slo_window = obs::LatencyHistogram();
    slo_window_count = 0;
  };

  // Fault plan on the event timeline: FaultPlan rounds are event indices.
  // Actions scheduled past the applied horizon never fire.
  std::vector<std::pair<std::size_t, BsId>> crash_at, recover_at;
  std::vector<std::pair<std::size_t, CapacityDegradation>> degrade_at;
  if (config.faults && config.faults->any()) {
    FaultPlan plan = make_fault_plan(*config.faults, universe.num_bss());
    plan.validate(universe.num_bss());
    for (const BsOutage& o : plan.outages) {
      crash_at.emplace_back(o.crash_round, o.bs);
      if (o.recover_round != kNeverRecovers)
        recover_at.emplace_back(o.recover_round, o.bs);
    }
    for (const CapacityDegradation& d : plan.degradations)
      degrade_at.emplace_back(d.round, d);
    const auto by_index = [](const auto& a, const auto& b) { return a.first < b.first; };
    std::stable_sort(crash_at.begin(), crash_at.end(), by_index);
    std::stable_sort(recover_at.begin(), recover_at.end(), by_index);
    std::stable_sort(degrade_at.begin(), degrade_at.end(), by_index);
  }
  std::size_t crash_cursor = 0, recover_cursor = 0, degrade_cursor = 0;

  // Crash orphans await their one re-placement attempt here (FIFO,
  // recovery_batch drained per event). head indexes the next attempt.
  std::vector<UeId> backlog;
  std::size_t backlog_head = 0;
  std::size_t episode_start = 0;

  std::string& log = result.event_log;
  log.reserve(timeline.events.size() * kEventLogBytesPerEvent);
  std::size_t cloud_active = 0;  // active slots currently cloud-forwarded

  const auto region_of = [&](std::uint32_t slot) { return partition.ue_region[slot]; };
  const auto record_timeline = [&](obs::TraceRecorder* rec, std::string_view label,
                                   std::uint32_t ue, std::optional<BsId> bs,
                                   std::size_t idx) {
    if (rec == nullptr && fr == nullptr) return;
    obs::TraceEvent e;
    e.kind = obs::EventKind::kTimeline;
    e.label = label;
    e.ue = ue;
    if (bs) e.bs = bs->value;
    e.value = idx;
    if (rec != nullptr) rec->record(e);
    if (fr != nullptr) fr->record(e);
  };
  const auto append_bs = [&](std::optional<BsId> bs) {
    if (bs) {
      log += "bs=";
      append_num(log, static_cast<std::uint64_t>(bs->value));
    } else {
      log += "cloud";
    }
  };

  // The periodic re-solve's candidate rows and scratch allocation, kept
  // across re-solves: each one resets only what the last one touched.
  LiveCandidates resolve_rows;
  Allocation scratch_alloc(config.resolve_every > 0 ? universe.num_ues() : 0);

  for (std::size_t idx = 0; idx < timeline.events.size(); ++idx) {
    const ChurnEvent& ev = timeline.events[idx];
    obs::TraceRecorder* const rec = obs::recorder();
    if (rec != nullptr) rec->set_round(idx);
    if (fr != nullptr) fr->set_round(idx);

    // 1. Faults scheduled at this event index (crashes, then
    //    degradations, then recoveries — a fixed documented order).
    for (; crash_cursor < crash_at.size() && crash_at[crash_cursor].first == idx;
         ++crash_cursor) {
      const BsId bs = crash_at[crash_cursor].second;
      if (backlog_head == backlog.size()) {  // backlog idle → episode starts
        backlog.clear();
        backlog_head = 0;
        episode_start = idx;
      }
      const std::size_t evicted = alloc.crash_bs(bs, backlog);
      ++stats.crashes;
      stats.orphaned_ues += evicted;
      stats.reassociations += evicted;  // served → cloud is an assignment move
      cloud_active += evicted;
      if (fr != nullptr) {
        // Incremental (not end-of-run) so windowed rollups see the step.
        fr->metrics().add_counter("churn.crashes");
        fr->metrics().add_counter("churn.orphaned", evicted);
      }
      log += "e=";
      append_num(log, idx);
      log += " fault crash bs=";
      append_num(log, static_cast<std::uint64_t>(bs.value));
      log += " orphans=";
      append_num(log, evicted);
      log += '\n';
      if (rec != nullptr) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::kFault;
        e.label = "bs-crash";
        e.bs = bs.value;
        e.value = idx;
        rec->record(e);
      }
    }
    for (; degrade_cursor < degrade_at.size() && degrade_at[degrade_cursor].first == idx;
         ++degrade_cursor) {
      const CapacityDegradation& d = degrade_at[degrade_cursor].second;
      alloc.degrade_bs(d.bs, d.cru_factor, d.rrb_factor);
      ++stats.degradations;
      if (fr != nullptr) fr->metrics().add_counter("churn.degradations");
      log += "e=";
      append_num(log, idx);
      log += " fault degrade bs=";
      append_num(log, static_cast<std::uint64_t>(d.bs.value));
      log += '\n';
      if (rec != nullptr) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::kFault;
        e.label = "bs-degrade";
        e.bs = d.bs.value;
        e.value = idx;
        rec->record(e);
      }
    }
    for (; recover_cursor < recover_at.size() && recover_at[recover_cursor].first == idx;
         ++recover_cursor) {
      const BsId bs = recover_at[recover_cursor].second;
      alloc.recover_bs(bs);
      ++stats.recoveries;
      if (fr != nullptr) fr->metrics().add_counter("churn.recoveries");
      log += "e=";
      append_num(log, idx);
      log += " fault recover bs=";
      append_num(log, static_cast<std::uint64_t>(bs.value));
      log += '\n';
      if (rec != nullptr) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::kRepair;
        e.label = "bs-recover";
        e.bs = bs.value;
        e.value = idx;
        rec->record(e);
      }
    }

    // 2. The event itself — the timed serving decision. Only allocator
    //    calls sit inside the clocked window; accounting and logging are
    //    outside it.
    ++stats.events;
    const UeId slot{ev.slot};
    std::optional<BsId> was;       // previous assignment (departure/move)
    std::optional<BsId> decided;   // new assignment (arrival/move)
    if (ev.kind == ChurnEventKind::kDeparture) was = alloc.allocation().bs_of(slot);
    if (ev.kind == ChurnEventKind::kMove)
      was = alloc.allocation().bs_of(UeId{ev.prev_slot});

    const std::uint64_t t0 = obs::monotonic_now_ns();
    switch (ev.kind) {
      case ChurnEventKind::kArrival:
        decided = alloc.admit(slot);
        break;
      case ChurnEventKind::kDeparture:
        alloc.remove(slot);
        break;
      case ChurnEventKind::kMove:
        alloc.remove(UeId{ev.prev_slot});
        decided = alloc.admit(slot);
        break;
    }
    const std::uint64_t elapsed_ns = obs::monotonic_now_ns() - t0;
    result.latency.record(elapsed_ns);
    if (config.slo_p99_ns > 0) {
      slo_window.record(elapsed_ns);
      if (++slo_window_count >= config.slo_window_events) close_slo_window(idx);
    }

    log += "e=";
    append_num(log, idx);
    log += " t=";
    append_num(log, ev.time_s);
    log += ' ';
    log += to_string(ev.kind);
    log += " ue=";
    append_num(log, static_cast<std::uint64_t>(ev.ue));
    log += " slot=";
    append_num(log, static_cast<std::uint64_t>(ev.slot));
    switch (ev.kind) {
      case ChurnEventKind::kArrival:
        ++stats.arrivals;
        decided ? ++stats.admitted_to_bs : ++stats.admitted_to_cloud;
        if (!decided) ++cloud_active;
        log += " -> ";
        append_bs(decided);
        break;
      case ChurnEventKind::kDeparture:
        ++stats.departures;
        if (!was) --cloud_active;
        log += " was=";
        append_bs(was);
        break;
      case ChurnEventKind::kMove: {
        ++stats.moves;
        decided ? ++stats.admitted_to_bs : ++stats.admitted_to_cloud;
        if (!was) --cloud_active;
        if (!decided) ++cloud_active;
        if (was && (!decided || *decided != *was)) ++stats.reassociations;
        const bool crossed = region_of(ev.prev_slot) != region_of(ev.slot);
        if (crossed) ++stats.cross_region_moves;
        log += " prev=";
        append_num(log, static_cast<std::uint64_t>(ev.prev_slot));
        log += " was=";
        append_bs(was);
        log += " -> ";
        append_bs(decided);
        log += " xregion=";
        append_num(log, static_cast<std::uint64_t>(crossed ? 1 : 0));
        break;
      }
    }
    log += '\n';
    record_timeline(rec, to_string(ev.kind), ev.ue, decided, idx);
    stats.peak_active = std::max(stats.peak_active, alloc.num_active());
    if (fr != nullptr) {
      switch (ev.kind) {
        case ChurnEventKind::kArrival: m_arrivals.add(); break;
        case ChurnEventKind::kDeparture: m_departures.add(); break;
        case ChurnEventKind::kMove: m_moves.add(); break;
      }
      m_active.set(static_cast<double>(alloc.num_active()));
      m_cloud_active.set(static_cast<double>(cloud_active));
    }

    // 3. Drain the crash backlog: recovery_batch re-placement attempts.
    //    Entries that departed, moved, or were swept onto a BS in the
    //    meantime are skipped for free.
    for (std::size_t budget = config.recovery_batch;
         budget > 0 && backlog_head < backlog.size();) {
      const UeId u = backlog[backlog_head++];
      if (!alloc.active(u) || !alloc.allocation().is_cloud(u)) continue;
      --budget;
      const auto placed = alloc.reattempt(u);
      if (placed) {
        ++stats.readmitted;
        --cloud_active;
        if (fr != nullptr) m_readmitted.add();
        log += "e=";
        append_num(log, idx);
        log += " recover slot=";
        append_num(log, static_cast<std::uint64_t>(u.value));
        log += " -> ";
        append_bs(placed);
        log += '\n';
      }
    }
    if (backlog_head == backlog.size() && !backlog.empty()) {
      const std::size_t episode = idx - episode_start + 1;
      stats.recovery_events_max = std::max(stats.recovery_events_max, episode);
      stats.recovery_events_total += episode;
      backlog.clear();
      backlog_head = 0;
    }

    // 4. Periodic readmit sweep over every cloud dweller with candidates
    //    (the allocator's waiting set, ascending).
    if (config.readmit_every > 0 && (idx + 1) % config.readmit_every == 0) {
      alloc.readmit_waiting([&](UeId u, BsId placed) {
        ++stats.readmitted;
        --cloud_active;
        if (fr != nullptr) m_readmitted.add();
        log += "e=";
        append_num(log, idx);
        log += " readmit slot=";
        append_num(log, static_cast<std::uint64_t>(u.value));
        log += " -> ";
        append_bs(placed);
        log += '\n';
      });
    }

    // 5. Periodic from-scratch baseline: what would a fresh solve_dmra
    //    over the live population earn right now? Runs muted (no trace,
    //    no audit) on a capacity view equal to the allocator's world —
    //    remaining plus its own commitments — so clamps carry over.
    if (config.resolve_every > 0 && (idx + 1) % config.resolve_every == 0) {
      ++stats.resolves;
      if (fr != nullptr) fr->metrics().add_counter("churn.resolves");
      const std::size_t nb = universe.num_bss();
      const std::size_t ns = universe.num_services();
      std::vector<std::uint32_t> world_crus(nb * ns);
      std::vector<std::uint32_t> world_rrbs(nb);
      for (std::size_t i = 0; i < nb; ++i) {
        const BsId bs{static_cast<std::uint32_t>(i)};
        world_rrbs[i] = alloc.state().remaining_rrbs(bs);
        for (std::size_t j = 0; j < ns; ++j)
          world_crus[i * ns + j] = alloc.state().remaining_crus(
              bs, ServiceId{static_cast<std::uint32_t>(j)});
      }
      // The proposers, ascending; inactive slots sit out and stay at the
      // cloud, so the walk and the profit below are O(live).
      std::vector<UeId> active;
      active.reserve(alloc.num_active());
      alloc.for_each_active([&](UeId u) {
        active.push_back(u);
        if (const auto bs = alloc.allocation().bs_of(u)) {
          const UserEquipment& e = universe.ue(u);
          world_crus[bs->idx() * ns + e.service.idx()] += e.cru_demand;
          world_rrbs[bs->idx()] += universe.candidate_rrbs(u, *bs);
        }
      });
      ResourceState scratch(universe);
      std::vector<std::uint32_t> caps(ns);
      for (std::size_t i = 0; i < nb; ++i) {
        const BsId bs{static_cast<std::uint32_t>(i)};
        for (std::size_t j = 0; j < ns; ++j) caps[j] = world_crus[i * ns + j];
        scratch.clamp_remaining(bs, caps, world_rrbs[i]);
      }
      {
        obs::ScopedTraceRecorder mute(nullptr);
        audit::ScopedAuditObserver mute_audit(nullptr);
        solve_dmra_partial(universe, config.incremental.dmra, scratch, scratch_alloc, active,
                           &resolve_rows);
      }
      const double scratch_profit = total_profit_over(universe, scratch_alloc, active);
      for (const UeId u : active) scratch_alloc.assign_cloud(u);
      const double live = alloc.live_profit();
      const double gap = scratch_profit > 0.0
                             ? std::max(0.0, (scratch_profit - live) / scratch_profit)
                             : 0.0;
      stats.resolve_gap_last = gap;
      stats.resolve_gap_max = std::max(stats.resolve_gap_max, gap);
      log += "e=";
      append_num(log, idx);
      log += " resolve live=";
      append_num(log, live);
      log += " scratch=";
      append_num(log, scratch_profit);
      log += " gap=";
      append_num(log, gap);
      log += '\n';
    }

    // 6. Audit seam + per-event RoundRow. Round 0 keeps the auditor
    //    stateless: feasibility + ledger recount every event, no
    //    monotone-profit chain (departures lower profit by design).
    alloc.audit_round(0);
    if (rec != nullptr) {
      const obs::EventTally tally = rec->take_tally();
      obs::RoundRow row;
      row.source = "sim/churn";
      row.round = idx;
      row.proposals = tally.proposals;
      row.accepts = tally.accepts;
      row.rejects = tally.rejects;
      row.trim_evictions = tally.trim_evictions;
      row.broadcasts = tally.broadcasts;
      row.messages = 0;
      row.unmatched_ues = cloud_active;
      row.cumulative_profit = alloc.live_profit();
      std::uint64_t cru_headroom = 0, rrb_headroom = 0;
      for (std::size_t i = 0; i < universe.num_bss(); ++i) {
        const BsId bs{static_cast<std::uint32_t>(i)};
        rrb_headroom += alloc.state().remaining_rrbs(bs);
        for (std::size_t j = 0; j < universe.num_services(); ++j)
          cru_headroom += alloc.state().remaining_crus(
              bs, ServiceId{static_cast<std::uint32_t>(j)});
      }
      row.cru_headroom = cru_headroom;
      row.rrb_headroom = rrb_headroom;
      rec->finish_round(row);
    }
    if (fr != nullptr) {
      // Cheap aggregate only (no headroom recount): the flight ring is on
      // the always-on path.
      obs::RoundRow row;
      row.source = "sim/churn";
      row.round = idx;
      row.unmatched_ues = cloud_active;
      row.cumulative_profit = alloc.live_profit();
      fr->finish_round(row);
    }
  }

  // Trailing partial SLO window + whole-run error-budget burn rate.
  if (config.slo_p99_ns > 0) {
    close_slo_window(timeline.events.empty() ? 0 : timeline.events.size() - 1);
    if (result.latency.count() > 0) {
      const double above = static_cast<double>(
          result.latency.count_above_ns(config.slo_p99_ns));
      result.slo.burn_rate =
          above / static_cast<double>(result.latency.count()) / 0.01;
    }
  }

  // A backlog still open at the horizon counts as one unfinished episode.
  if (backlog_head < backlog.size() && !timeline.events.empty()) {
    const std::size_t episode = timeline.events.size() - episode_start;
    stats.recovery_events_max = std::max(stats.recovery_events_max, episode);
    stats.recovery_events_total += episode;
  }

  stats.final_profit = alloc.live_profit();
  stats.final_active = alloc.num_active();
  stats.final_served = alloc.allocation().num_served();
  stats.final_cloud = cloud_active;
  log += "final events=";
  append_num(log, stats.events);
  log += " active=";
  append_num(log, stats.final_active);
  log += " served=";
  append_num(log, stats.final_served);
  log += " cloud=";
  append_num(log, stats.final_cloud);
  log += " profit=";
  append_num(log, stats.final_profit);
  log += '\n';

  if (obs::TraceRecorder* const rec = obs::recorder(); rec != nullptr) {
    obs::MetricsRegistry& m = rec->metrics();
    m.add_counter("churn.arrivals", stats.arrivals);
    m.add_counter("churn.departures", stats.departures);
    m.add_counter("churn.moves", stats.moves);
    m.add_counter("churn.reassociations", stats.reassociations);
    m.add_counter("churn.readmitted", stats.readmitted);
    m.add_counter("churn.orphaned", stats.orphaned_ues);
    m.add_counter("churn.crashes", stats.crashes);
    m.add_counter("churn.recoveries", stats.recoveries);
    m.add_counter("churn.degradations", stats.degradations);
    m.add_counter("churn.resolves", stats.resolves);
  }

  result.final_allocation = alloc.allocation();
  return result;
}

ChurnResult run_churn(const ChurnConfig& config) {
  return run_churn(build_churn_timeline(config), config);
}

}  // namespace dmra
