// Allocator-as-a-service driver: a long-horizon streaming churn run
// through the persistent IncrementalAllocator (src/sim/churn), with the
// serving SLO metrics an operator cares about — per-decision latency
// percentiles, re-allocation churn, profit vs a periodic from-scratch
// re-solve, and recovery time after injected faults.
//
//   ./build/bench/serve_churn --rate 20 --dwell 100 --horizon 10000
//       --resolve-every 1000 --faults "crashes=1,crash-round=5000,down-rounds=2000"
//       --event-log events.log --latency-csv latency.csv
//
// Determinism (docs/SERVING.md): the per-seed event logs, the final
// allocations, and the --out CSV are byte-identical for a given seed set
// across reruns and across --jobs values. Wall-clock latency appears only
// on stdout and in --latency-csv, never in a deterministic surface.

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

/// Shortest round-trip number formatting (std::to_chars) — the --out CSV
/// is a deterministic surface, same rule as the round CSV exporter.
template <typename T>
std::string csv_num(T v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// Deterministic per-seed serving row for the --out CSV (no wall-clock
/// columns — latency lives in --latency-csv and on stdout).
std::string serving_csv_header() {
  return "seed,events,arrivals,departures,moves,reassociations,churn_rate,"
         "cross_region_moves,readmitted,orphaned,recovery_events_max,resolves,"
         "resolve_gap_last,final_profit,final_active,final_served,final_cloud,"
         "peak_active,universe_slots,boundary_slots,cloud_only_slots\n";
}

void append_serving_row(std::string& out, std::uint64_t seed,
                        const dmra::ChurnStats& s) {
  const auto num = [&](auto v) { out += csv_num(v); };
  num(seed);
  out += ',';
  num(static_cast<std::uint64_t>(s.events));
  out += ',';
  num(static_cast<std::uint64_t>(s.arrivals));
  out += ',';
  num(static_cast<std::uint64_t>(s.departures));
  out += ',';
  num(static_cast<std::uint64_t>(s.moves));
  out += ',';
  num(static_cast<std::uint64_t>(s.reassociations));
  out += ',';
  num(s.churn_rate());
  out += ',';
  num(static_cast<std::uint64_t>(s.cross_region_moves));
  out += ',';
  num(static_cast<std::uint64_t>(s.readmitted));
  out += ',';
  num(static_cast<std::uint64_t>(s.orphaned_ues));
  out += ',';
  num(static_cast<std::uint64_t>(s.recovery_events_max));
  out += ',';
  num(static_cast<std::uint64_t>(s.resolves));
  out += ',';
  num(s.resolve_gap_last);
  out += ',';
  num(s.final_profit);
  out += ',';
  num(static_cast<std::uint64_t>(s.final_active));
  out += ',';
  num(static_cast<std::uint64_t>(s.final_served));
  out += ',';
  num(static_cast<std::uint64_t>(s.final_cloud));
  out += ',';
  num(static_cast<std::uint64_t>(s.peak_active));
  out += ',';
  num(static_cast<std::uint64_t>(s.universe_slots));
  out += ',';
  num(static_cast<std::uint64_t>(s.boundary_slots));
  out += ',';
  num(static_cast<std::uint64_t>(s.cloud_only_slots));
  out += '\n';
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return false;
  }
  out << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  dmra::Cli cli;
  cli.add_flag("rate", "20", dmra::Cli::number(0),
               "Poisson UE arrival rate, arrivals per second");
  cli.add_flag("dwell", "100", dmra::Cli::number(0),
               "mean UE dwell time, seconds (exponential)");
  cli.add_flag("move-every", "0", dmra::Cli::number(0),
               "mean seconds between waypoint re-associations per UE (0 = static)");
  cli.add_flag("horizon", "10000", dmra::Cli::whole(0), "events to apply before stopping");
  cli.add_flag("prefill", "-1", dmra::Cli::whole(-1),
               "UEs admitted at t=0 (-1 = the rate*dwell steady-state target)");
  cli.add_flag("resolve-every", "1000", dmra::Cli::whole(0),
               "events between from-scratch re-solve baselines (0 = off)");
  cli.add_flag("readmit-every", "64", dmra::Cli::whole(0),
               "events between cloud-dweller readmission sweeps (0 = off)");
  cli.add_flag("recovery-batch", "4", dmra::Cli::whole(0),
               "crash-orphan re-placement attempts per event");
  cli.add_flag("regions", "4", dmra::Cli::whole(1),
               "partition_regions() classes for coverage accounting");
  cli.add_flag("seeds", "4", dmra::Cli::whole(1), "number of replication seeds");
  cli.add_flag("rho", "100", dmra::Cli::number(0), "DMRA preference weight ρ (Eq. 17)");
  cli.add_flag("slo-p99-us", "0", dmra::Cli::whole(0),
               "per-decision p99 latency objective in microseconds (0 = SLO "
               "tracking off); a breached window triggers the flight recorder");
  cli.add_flag("slo-window", "256", dmra::Cli::whole(1),
               "applied events per SLO evaluation window");
  cli.add_flag("out", "", dmra::Cli::text(), "write the per-seed serving CSV to this path");
  cli.add_flag("event-log", "", dmra::Cli::text(),
               "write the deterministic event logs (all seeds, in seed order)");
  cli.add_flag("latency-csv", "", dmra::Cli::text(),
               "write the merged decision-latency histogram (wall clock)");
  dmra_bench::add_jobs_flag(cli);
  dmra_bench::add_obs_flags(cli);
  dmra_bench::add_fault_flags(cli);
  cli.parse_or_exit(argc, argv);

  dmra::ChurnConfig base;
  base.deployment = dmra_bench::paper_config();
  base.arrival_rate_hz = cli.get_double("rate");
  base.mean_dwell_s = cli.get_double("dwell");
  base.mean_move_interval_s = cli.get_double("move-every");
  base.horizon_events = cli.get_size("horizon");
  base.resolve_every = cli.get_size("resolve-every");
  base.readmit_every = cli.get_size("readmit-every");
  base.recovery_batch = cli.get_size("recovery-batch");
  base.regions = cli.get_size("regions");
  base.incremental.dmra.rho = cli.get_double("rho");
  base.slo_p99_ns = cli.get_size("slo-p99-us") * 1000u;
  base.slo_window_events = cli.get_size("slo-window");
  base.faults = dmra_bench::faults_from(cli);
  const std::int64_t prefill = cli.get_int("prefill");
  base.prefill = prefill < 0 ? base.steady_state_target() : static_cast<std::size_t>(prefill);

  const std::vector<std::uint64_t> seeds = dmra::default_seeds(cli.get_size("seeds"));
  const std::size_t jobs = cli.get_size("jobs");

  dmra_bench::ObsSession obs_session(cli, argv[0]);
  obs_session.describe_scenario(base.deployment);
  obs_session.describe_run(seeds, jobs);

  // One independent serving run per seed, fanned across --jobs. Trace
  // shards merge back in seed order, so every export is jobs-invariant.
  std::vector<dmra::ChurnResult> runs =
      dmra::obs::traced_parallel_map(jobs, seeds.size(), [&](std::size_t k) {
        dmra::ChurnConfig cfg = base;
        cfg.seed = seeds[k];
        return dmra::run_churn(cfg);
      });

  std::cout << "== serve_churn: rate " << base.arrival_rate_hz << "/s, dwell "
            << base.mean_dwell_s << " s (steady-state target "
            << base.steady_state_target() << " UEs), horizon "
            << base.horizon_events << " events ==\n";

  std::string csv = serving_csv_header();
  std::string event_logs;
  dmra::obs::LatencyHistogram merged;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const dmra::ChurnStats& s = runs[k].stats;
    append_serving_row(csv, seeds[k], s);
    event_logs += runs[k].event_log;
    merged.merge_from(runs[k].latency);
    std::cout << "seed " << seeds[k] << ": " << s.events << " events ("
              << s.arrivals << " arrive / " << s.departures << " depart / "
              << s.moves << " move), churn " << dmra::fmt(s.churn_rate(), 4)
              << ", served " << s.final_served << "/" << s.final_active
              << ", profit " << dmra::fmt(s.final_profit, 1);
    if (s.resolves > 0)
      std::cout << ", resolve gap " << dmra::fmt(s.resolve_gap_last, 4);
    if (s.crashes > 0)
      std::cout << ", recovery<=" << s.recovery_events_max << " events";
    std::cout << ", p50 "
              << dmra::fmt(runs[k].latency.percentile_ns(0.5) / 1e3, 2) << " us\n";
  }
  std::cout << "decision latency (all seeds, wall clock): p50 "
            << dmra::fmt(merged.percentile_ns(0.5) / 1e3, 2) << " us, p99 "
            << dmra::fmt(merged.percentile_ns(0.99) / 1e3, 2) << " us, p999 "
            << dmra::fmt(merged.percentile_ns(0.999) / 1e3, 2) << " us over "
            << merged.count() << " decisions\n";
  if (base.slo_p99_ns > 0) {
    // Wall-clock SLO accounting — stdout only, never a deterministic
    // surface (ChurnSloReport contract in sim/churn.hpp).
    std::size_t windows = 0;
    std::size_t breached = 0;
    double worst_ns = 0.0;
    double burn = 0.0;
    for (const dmra::ChurnResult& r : runs) {
      windows += r.slo.windows;
      breached += r.slo.breached_windows;
      worst_ns = std::max(worst_ns, r.slo.worst_window_p99_ns);
      burn = std::max(burn, r.slo.burn_rate);
    }
    std::cout << "SLO (window p99 <= "
              << dmra::fmt(static_cast<double>(base.slo_p99_ns) / 1e3, 1)
              << " us): " << breached << "/" << windows
              << " windows breached, worst window p99 "
              << dmra::fmt(worst_ns / 1e3, 2) << " us, burn rate "
              << dmra::fmt(burn, 2) << "x budget\n";
  }

  const std::string out_path = cli.get_string("out");
  if (!out_path.empty() && write_file(out_path, csv))
    obs_session.note_output("serving-csv", out_path);
  const std::string log_path = cli.get_string("event-log");
  if (!log_path.empty() && write_file(log_path, event_logs))
    obs_session.note_output("event-log", log_path);
  const std::string lat_path = cli.get_string("latency-csv");
  if (!lat_path.empty() && write_file(lat_path, merged.to_csv()))
    obs_session.note_output("latency-csv", lat_path);
  return 0;
}
