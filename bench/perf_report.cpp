// Tracked performance baseline: times the three hot paths this repo
// optimizes — scenario construction, one decentralized DMRA run, and a
// full replicated experiment — at three scales each, and emits the
// numbers as BENCH_core.json so regressions show up in review diffs.
//
//   ./build/bench/perf_report [--out BENCH_core.json] [--quick] [--jobs N]
//
// Methodology (see docs/PERFORMANCE.md): each probe is run `reps` times
// after one untimed warm-up; we report the MINIMUM wall time (least noise
// on a shared machine) plus the protocol's round/message counts, which
// must not change when only the implementation gets faster.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

// Same PR105593-family false positive documented in mec/scenario_io.cpp:
// GCC 12's -Wmaybe-uninitialized flags moved-from JsonValue temporaries.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ <= 12
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <utility>

#include "bench_common.hpp"
#include "util/alloc_count.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Best-of-`reps` wall time of `fn`, in milliseconds (one untimed warm-up).
template <typename Fn>
double time_ms(std::size_t reps, Fn&& fn) {
  fn();  // warm-up: page in code and data, fill allocator caches
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const std::chrono::duration<double, std::milli> dt = Clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

/// Minor page faults of one call of `fn`, made in a forked child. Every
/// page the call writes faults there once, fresh or copy-on-write, so the
/// count is the call's written footprint whatever earlier probes left in
/// the allocator's free lists. It includes the child's own start and exit,
/// a few dozen faults.
template <typename Fn>
std::uint64_t minor_faults_of(Fn&& fn) {
  const pid_t pid = fork();
  if (pid < 0) return 0;
  if (pid == 0) {
    fn();
    _exit(0);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status)) return 0;
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

dmra::ScenarioConfig config_at(std::size_t ues) {
  dmra::ScenarioConfig cfg = dmra_bench::paper_config();
  cfg.num_ues = ues;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  dmra::Cli cli;
  cli.add_flag("out", "BENCH_core.json", dmra::Cli::text(), "output path for the JSON report");
  cli.add_flag("quick", "false", dmra::Cli::yes_no(),
               "CI smoke mode: fewer reps, smaller scales");
  cli.add_flag("reps", "0", dmra::Cli::whole(0),
               "timed repetitions per probe (0 = 5, or 2 with --quick)");
  dmra_bench::add_jobs_flag(cli);
  dmra_bench::add_obs_flags(cli);
  cli.parse_or_exit(argc, argv);
  dmra::allocprobe::install();  // count heap allocations in the probes below
  const bool quick = cli.get_bool("quick");
  const std::size_t reps_flag = cli.get_size("reps");
  const std::size_t reps = reps_flag > 0 ? reps_flag : (quick ? 2 : 5);
  const std::size_t jobs = cli.get_size("jobs");
  dmra_bench::ObsSession obs_session(cli, argv[0]);
  const std::vector<std::size_t> scales =
      quick ? std::vector<std::size_t>{250, 500, 1000}
            : std::vector<std::size_t>{500, 1000, 2000};
  constexpr std::uint64_t kSeed = 1;
  obs_session.describe_scenario(config_at(scales.back()));
  obs_session.describe_run(dmra::default_seeds(quick ? 4 : 8), jobs);

  dmra::JsonArray scenario_rows, decentralized_rows, experiment_rows;

  // The untraced probes below must be a strict no-op for the tracing layer:
  // the process-wide record() counter standing still is the proof (see
  // obs/recorder.hpp). Checked after the probes unless tracing was asked for.
  const std::uint64_t trace_events_before = dmra::obs::events_recorded_total();

  for (const std::size_t ues : scales) {
    const dmra::ScenarioConfig cfg = config_at(ues);

    // Probe 1: scenario construction (placement + sparse link build).
    const double build_ms =
        time_ms(reps, [&] { dmra::generate_scenario(cfg, kSeed); });
    dmra::JsonObject scenario_row;
    scenario_row["ues"] = static_cast<std::uint64_t>(ues);
    scenario_row["wall_ms"] = build_ms;
    scenario_rows.push_back(std::move(scenario_row));

    // Probe 2: one decentralized DMRA run (message-passing hot path).
    // Rounds/messages are semantic outputs: they must stay identical across
    // performance-only changes, so the report tracks them next to the time.
    // wall_ms is measured with the session's always-on flight recorder
    // installed (the shipping configuration); wall_ms_flight_off uninstalls
    // it for the same reps so the tracked <2% overhead budget
    // (docs/OBSERVABILITY.md) is a measured number, not a claim.
    const dmra::Scenario scenario = dmra::generate_scenario(cfg, kSeed);
    dmra::DecentralizedResult last{};
    const double run_ms =
        time_ms(reps, [&] { last = dmra::run_decentralized_dmra(scenario); });
    double run_off_ms = 0.0;
    {
      dmra::obs::ScopedFlightRecorder flight_off(nullptr);
      run_off_ms =
          time_ms(reps, [&] { last = dmra::run_decentralized_dmra(scenario); });
    }
    // Deterministic flight telemetry for this probe: a fresh recorder so
    // the counts are per-run, not cumulative across the session.
    std::uint64_t flight_retained = 0;
    {
      dmra::obs::FlightRecorder probe_flight;
      dmra::obs::ScopedFlightRecorder probe_scope(&probe_flight);
      dmra::run_decentralized_dmra(scenario);
      flight_retained = probe_flight.events_retained();
    }
    dmra::JsonObject dec_row;
    dec_row["ues"] = static_cast<std::uint64_t>(ues);
    dec_row["wall_ms"] = run_ms;
    dec_row["wall_ms_flight_off"] = run_off_ms;
    dec_row["flight_events_retained"] = flight_retained;
    dec_row["rounds"] = last.bus.rounds;
    dec_row["messages_sent"] = last.bus.messages_sent;
    dec_row["matching_rounds"] = static_cast<std::uint64_t>(last.dmra.rounds);
    // Derived throughput (wall-clock based, noisy like wall_ms) plus the
    // deterministic allocation counters (schema 1.2): this binary links
    // the counting allocator, so steady_state_allocations is an exact,
    // reproducible number — 0 is the tracked budget.
    dec_row["messages_per_sec"] =
        run_ms > 0.0 ? static_cast<double>(last.bus.messages_sent) / (run_ms / 1e3)
                     : 0.0;
    dec_row["alloc_measured"] = last.alloc.measured;
    dec_row["alloc_settle_rounds"] = last.alloc.settle_rounds;
    dec_row["steady_state_allocations"] = last.alloc.steady_state_allocations;
    dec_row["round_loop_allocations"] = last.alloc.total_allocations;
    decentralized_rows.push_back(std::move(dec_row));
    const double flight_overhead_pct =
        run_off_ms > 0.0 ? (run_ms - run_off_ms) / run_off_ms * 100.0 : 0.0;
    std::cout << "decentralized " << ues << " UEs: " << dmra::fmt(run_ms, 2)
              << " ms, " << dmra::to_string(last.bus) << ", flight overhead "
              << dmra::fmt(flight_overhead_pct, 2) << "%\n";

    // Probe 3: a full experiment (replications fanned across --jobs).
    dmra::ExperimentSpec spec;
    spec.title = "perf probe";
    spec.x_label = "UEs";
    spec.xs = {static_cast<double>(ues)};
    spec.seeds = dmra::default_seeds(quick ? 4 : 8);
    spec.jobs = jobs;
    spec.make_config = [&](double x) { return config_at(static_cast<std::size_t>(x)); };
    spec.make_allocators = [](double) { return dmra_bench::paper_allocators({}); };
    const double exp_ms = time_ms(quick ? 1 : 2, [&] { dmra::run_experiment(spec); });
    dmra::JsonObject exp_row;
    exp_row["ues"] = static_cast<std::uint64_t>(ues);
    exp_row["seeds"] = static_cast<std::uint64_t>(spec.seeds.size());
    exp_row["wall_ms"] = exp_ms;
    experiment_rows.push_back(std::move(exp_row));
  }

  // Probe 4 (schema 1.3): the region-sharded runtime at production scale.
  // One big scenario, a shard-count sweep against the single-bus oracle.
  // The per-shard counters (shards, boundary UEs, reconcile stats) and the
  // bus/message totals are deterministic semantic outputs; profit columns
  // are informational (the quality contract itself lives in
  // tests/core/sharded_test.cpp).
  dmra::JsonArray sharded_rows;
  {
    const std::size_t big_ues = quick ? 20'000 : 100'000;
    const dmra::ScenarioConfig big_cfg = config_at(big_ues);
    const dmra::Scenario big = dmra::generate_scenario(big_cfg, kSeed);
    dmra::DecentralizedResult oracle{};
    const double oracle_ms =
        time_ms(quick ? 1 : reps, [&] { oracle = dmra::run_decentralized_dmra(big); });
    const double oracle_profit = dmra::total_profit(big, oracle.dmra.allocation);
    std::cout << "oracle (single bus) " << big_ues << " UEs: " << dmra::fmt(oracle_ms, 2)
              << " ms\n";
    for (const std::size_t shards : {1u, 4u, 16u}) {
      dmra::ShardedResult last{};
      const double run_ms = time_ms(quick ? 1 : reps, [&] {
        last = dmra::run_sharded_dmra(big, {},
                                      {.num_shards = shards, .jobs = jobs});
      });
      dmra::JsonObject row;
      row["ues"] = static_cast<std::uint64_t>(big_ues);
      row["shards"] = static_cast<std::uint64_t>(last.shard.num_shards);
      row["wall_ms"] = run_ms;
      row["oracle_wall_ms"] = oracle_ms;
      row["rounds"] = last.bus.rounds;
      row["messages_sent"] = last.bus.messages_sent;
      row["matching_rounds"] = static_cast<std::uint64_t>(last.dmra.rounds);
      row["interior_ues"] = static_cast<std::uint64_t>(last.shard.interior_ues);
      row["boundary_ues"] = static_cast<std::uint64_t>(last.shard.boundary_ues);
      row["boundary_ues_reconciled"] =
          static_cast<std::uint64_t>(last.shard.boundary_ues_reconciled);
      row["cloud_only_ues"] = static_cast<std::uint64_t>(last.shard.cloud_only_ues);
      row["reconcile_rounds"] = static_cast<std::uint64_t>(last.shard.reconcile_rounds);
      row["max_shard_rounds"] = static_cast<std::uint64_t>(last.shard.max_shard_rounds);
      const double profit = dmra::total_profit(big, last.dmra.allocation);
      const double vs_oracle = oracle_profit > 0.0 ? profit / oracle_profit : 1.0;
      row["profit"] = profit;
      row["profit_vs_oracle"] = vs_oracle;
      row["messages_per_sec"] =
          run_ms > 0.0
              ? static_cast<double>(last.bus.messages_sent) / (run_ms / 1e3)
              : 0.0;
      std::cout << "sharded " << big_ues << " UEs, " << shards
                << " shards: " << dmra::fmt(run_ms, 2) << " ms, profit/oracle "
                << dmra::fmt(vs_oracle, 4) << ", boundary "
                << last.shard.boundary_ues << " (reconciled "
                << last.shard.boundary_ues_reconciled << ")\n";
      sharded_rows.push_back(std::move(row));
    }
  }

  // Probe 5 (schema 1.4): the allocator-as-a-service serving loop
  // (sim/churn through the persistent IncrementalAllocator), one steady
  // run and one with a crash on the event timeline. The event/churn/
  // recovery counters are deterministic semantic outputs; wall time,
  // decision throughput, and the latency percentiles are wall-clock
  // measurements (warn-only in tools/bench_diff.py, like wall_ms).
  dmra::JsonArray serving_rows;
  {
    dmra::ChurnConfig serve;
    serve.deployment = dmra_bench::paper_config();
    serve.arrival_rate_hz = quick ? 10.0 : 20.0;
    serve.mean_dwell_s = quick ? 50.0 : 100.0;
    serve.mean_move_interval_s = 60.0;
    serve.horizon_events = quick ? 1'500 : 10'000;
    serve.resolve_every = quick ? 500 : 2'000;
    serve.prefill = serve.steady_state_target();
    serve.seed = kSeed;

    dmra::FaultSpec crash;
    crash.crashes = 1;
    crash.crash_round = serve.horizon_events / 2;
    crash.down_rounds = serve.horizon_events / 10;
    crash.seed = 9;

    for (const bool faulted : {false, true}) {
      dmra::ChurnConfig cfg = serve;
      if (faulted) cfg.faults = crash;
      // The timeline is identical across reps and fault arms (faults do
      // not perturb arrivals/departures); build it once per arm and time
      // the replay alone, the way a serving process would see it.
      const dmra::ChurnTimeline timeline = dmra::build_churn_timeline(cfg);
      dmra::ChurnResult last;
      const double run_ms =
          time_ms(quick ? 1 : reps, [&] { last = dmra::run_churn(timeline, cfg); });
      // Flight telemetry (schema 1.5): a fresh windowed recorder over one
      // replay, so retained events / dump count / window count are exact
      // per-run semantic outputs (tools/bench_diff.py telemetry keys).
      dmra::obs::FlightRecorder::Config flight_cfg;
      flight_cfg.window_len = 256;
      dmra::obs::FlightRecorder probe_flight(flight_cfg);
      {
        dmra::obs::ScopedFlightRecorder probe_scope(&probe_flight);
        dmra::run_churn(timeline, cfg);
      }
      const dmra::ChurnStats& s = last.stats;
      dmra::JsonObject row;
      row["faults"] = faulted;
      row["steady_state_ues"] = static_cast<std::uint64_t>(cfg.steady_state_target());
      row["horizon_events"] = static_cast<std::uint64_t>(cfg.horizon_events);
      row["events"] = static_cast<std::uint64_t>(s.events);
      row["arrivals"] = static_cast<std::uint64_t>(s.arrivals);
      row["departures"] = static_cast<std::uint64_t>(s.departures);
      row["moves"] = static_cast<std::uint64_t>(s.moves);
      row["reassociations"] = static_cast<std::uint64_t>(s.reassociations);
      row["churn_rate"] = s.churn_rate();
      row["cross_region_moves"] = static_cast<std::uint64_t>(s.cross_region_moves);
      row["readmitted"] = static_cast<std::uint64_t>(s.readmitted);
      row["orphaned"] = static_cast<std::uint64_t>(s.orphaned_ues);
      row["recovery_events_max"] = static_cast<std::uint64_t>(s.recovery_events_max);
      row["resolves"] = static_cast<std::uint64_t>(s.resolves);
      row["resolve_gap_last"] = s.resolve_gap_last;
      row["resolve_gap_max"] = s.resolve_gap_max;
      row["final_active"] = static_cast<std::uint64_t>(s.final_active);
      row["final_served"] = static_cast<std::uint64_t>(s.final_served);
      row["final_profit"] = s.final_profit;
      row["wall_ms"] = run_ms;
      row["events_per_sec"] =
          run_ms > 0.0 ? static_cast<double>(s.events) / (run_ms / 1e3) : 0.0;
      row["latency_p50_ns"] = last.latency.percentile_ns(0.5);
      row["latency_p99_ns"] = last.latency.percentile_ns(0.99);
      row["latency_p999_ns"] = last.latency.percentile_ns(0.999);
      row["flight_events_retained"] = probe_flight.events_retained();
      row["postmortem_dumps"] =
          static_cast<std::uint64_t>(probe_flight.triggered() ? 1 : 0);
      row["metric_windows"] = static_cast<std::uint64_t>(
          probe_flight.metrics().collect_windows().size());
      std::cout << "serving " << (faulted ? "(crash armed) " : "") << s.events
                << " events @ " << cfg.steady_state_target()
                << " steady-state UEs: " << dmra::fmt(run_ms, 2) << " ms, churn "
                << dmra::fmt(s.churn_rate(), 4) << ", p50 "
                << dmra::fmt(last.latency.percentile_ns(0.5) / 1e3, 2)
                << " us, p99 "
                << dmra::fmt(last.latency.percentile_ns(0.99) / 1e3, 2) << " us\n";
      serving_rows.push_back(std::move(row));
    }
  }

  // Probe 6 (schema 1.6): the serving set-up pass, build_churn_timeline
  // over the benchmark's three workloads (perfbench/driver.cpp): the
  // dense 10x10 deployment, 100 s dwell, prefill at steady state and a
  // 40 000-event horizon, at generator seed 24 (perfbench seed 3's first
  // input). slots and candidate_slots are semantic; wall_ms is the best of
  // the reps, and minor_faults those of one build in a forked child.
  struct TimelineWorkload {
    const char* name;
    double arrival_rate_hz;
    double move_every_s;
  };
  constexpr TimelineWorkload kTimelineWorkloads[] = {
      {"dense_batch", 40.0, 0.0}, {"serve_saturated", 60.0, 0.0}, {"serve_mobile", 20.0, 10.0}};
  dmra::JsonArray timeline_rows;
  for (const TimelineWorkload& w : kTimelineWorkloads) {
    dmra::ChurnConfig cfg;
    cfg.deployment.bss_per_sp = 20;
    cfg.deployment.area_side_m = 3000.0;
    cfg.arrival_rate_hz = w.arrival_rate_hz;
    cfg.mean_dwell_s = 100.0;
    cfg.mean_move_interval_s = w.move_every_s;
    cfg.prefill = cfg.steady_state_target();
    cfg.horizon_events = 40'000;
    cfg.seed = 24;
    std::size_t slots = 0, candidate_slots = 0;
    const double build_ms = time_ms(reps, [&] {
      const dmra::ChurnTimeline timeline = dmra::build_churn_timeline(cfg);
      slots = timeline.universe.num_ues();
      candidate_slots = timeline.universe.num_candidate_slots();
    });
    const std::uint64_t faults = minor_faults_of([&] { dmra::build_churn_timeline(cfg); });
    dmra::JsonObject row;
    row["workload"] = std::string(w.name);
    row["wall_ms"] = build_ms;
    row["slots"] = static_cast<std::uint64_t>(slots);
    row["candidate_slots"] = static_cast<std::uint64_t>(candidate_slots);
    row["minor_faults"] = faults;
    std::cout << "timeline " << w.name << ": " << slots << " slots, " << candidate_slots
              << " candidate slots, " << dmra::fmt(build_ms, 2) << " ms, " << faults
              << " minor faults\n";
    timeline_rows.push_back(std::move(row));
  }

  if (!obs_session.enabled()) {
    const std::uint64_t delta =
        dmra::obs::events_recorded_total() - trace_events_before;
    if (delta != 0) {
      std::cerr << "FAIL: tracing disabled but " << delta
                << " trace events were recorded — the disabled path is not a no-op\n";
      return 1;
    }
    std::cout << "no-op check: 0 trace events recorded across untraced probes\n";
  }

  dmra::JsonObject root;
  root["schema"] = "dmra-perf-report/1.6";
  root["git"] = std::string(dmra::obs::git_describe());
  root["build"] = dmra::obs::build_flavor_json();
  root["quick"] = quick;
  root["reps"] = static_cast<std::uint64_t>(reps);
  root["jobs_flag"] = static_cast<std::uint64_t>(jobs);
  root["hardware_threads"] =
      static_cast<std::uint64_t>(dmra::ThreadPool::hardware_concurrency());
  root["scenario_build"] = std::move(scenario_rows);
  root["decentralized_run"] = std::move(decentralized_rows);
  root["experiment"] = std::move(experiment_rows);
  root["sharded_run"] = std::move(sharded_rows);
  root["serving_run"] = std::move(serving_rows);
  root["timeline_build"] = std::move(timeline_rows);
  root["peak_rss_mib"] = peak_rss_mib();
  const dmra::JsonValue report{std::move(root)};

  const std::string out_path = cli.get_string("out");
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  out << report.dump(2) << '\n';
  std::cout << report.dump(2) << "\n(report written to " << out_path << ")\n";
  obs_session.note_output("bench-json", out_path);
  return 0;
}
