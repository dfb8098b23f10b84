// Ablation A7: association churn under mobility. A fixed population (no
// arrivals or departures) is prefilled through run_churn
// (src/sim/churn.hpp), then every UE takes random-waypoint moves; each
// move re-admits the UE at its new position against the live ledger.
// Sweeping the waypoint speed quantifies the paper's "the best association
// changes over time" premise: how often a move lands on another BS, and
// how far the live allocation drifts from a DMRA re-solve.

#include <iostream>

#include "bench_common.hpp"

namespace {

struct SeedValues {
  double moves, per_move, profit, gap;
};

}  // namespace

int main(int argc, char** argv) {
  dmra::Cli cli;
  cli.add_flag("speeds", "0,1,5,15,30", dmra::Cli::number(0).as_list(),
               "mean UE speeds (m/s) to sweep, each drawn from [0.5x, 1.5x]; 0 = static");
  cli.add_flag("ues", "600", dmra::Cli::whole(1), "number of UEs");
  cli.add_flag("steps", "12", dmra::Cli::whole(0), "waypoint moves per UE");
  cli.add_flag("dt", "2", dmra::Cli::number(0), "mean seconds between one UE's moves");
  cli.add_flag("seeds", "5", dmra::Cli::whole(1), "seeds per configuration");
  dmra_bench::add_jobs_flag(cli);
  dmra_bench::add_obs_flags(cli);
  dmra_bench::add_fault_flags(cli);
  cli.parse_or_exit(argc, argv);
  const std::vector<double> speeds = cli.get_double_list("speeds");
  const std::size_t ues = cli.get_size("ues");
  const std::size_t steps = cli.get_size("steps");
  const double dt = cli.get_double("dt");
  const auto seeds = dmra::default_seeds(cli.get_size("seeds"));
  dmra_bench::ObsSession obs_session(cli, argv[0]);
  const std::size_t jobs = cli.get_size("jobs");
  obs_session.describe_scenario(dmra_bench::paper_config());
  obs_session.describe_run(seeds, jobs);
  // Serving faults: crashes and degradations on the event timeline.
  const auto faults = dmra_bench::faults_from(cli);

  std::cout << "== A7: reassociation vs UE speed (" << ues << " UEs, " << steps
            << " random-waypoint moves each, one every " << dt << " s on average) ==\n\n";
  dmra::Table table({"speed (m/s)", "moves", "reassoc/move", "live profit",
                     "gap to re-solve"});
  for (const double speed : speeds) {
    const auto per_seed = dmra::obs::traced_parallel_map(jobs, seeds.size(), [&](std::size_t si) {
      dmra::ChurnConfig cfg;
      cfg.deployment = dmra_bench::paper_config();
      cfg.arrival_rate_hz = 0.0;
      cfg.mean_dwell_s = 1e9;  // nobody departs within the run
      cfg.prefill = ues;
      const bool moving = speed > 0.0 && dt > 0.0 && steps > 0;
      cfg.mean_move_interval_s = moving ? dt : 0.0;
      cfg.waypoint.speed_min_mps = speed * 0.5;
      cfg.waypoint.speed_max_mps = speed * 1.5;
      cfg.horizon_events = ues * (1 + (moving ? steps : 0));
      cfg.resolve_every = cfg.horizon_events;  // one DMRA re-solve, at the end
      cfg.faults = faults;
      cfg.seed = seeds[si];
      const dmra::ChurnStats s = dmra::run_churn(cfg).stats;
      const auto moves = static_cast<double>(s.moves);
      return SeedValues{moves,
                        moves > 0.0 ? static_cast<double>(s.reassociations) / moves : 0.0,
                        s.final_profit, s.resolve_gap_last};
    });
    dmra::RunningStats moves, per_move, profit, gap;
    for (const SeedValues& v : per_seed) {  // seed order: jobs-invariant
      moves.add(v.moves);
      per_move.add(v.per_move);
      profit.add(v.profit);
      gap.add(v.gap);
    }
    table.add_row({dmra::fmt(speed, 0), dmra::fmt(moves.mean(), 0),
                   dmra::fmt(per_move.mean(), 3), dmra::fmt(profit.mean()),
                   dmra::fmt(100.0 * gap.mean(), 2) + "%"});
  }
  std::cout << table.to_aligned()
            << "\nreading: the faster a UE walks between moves, the more often a move lands\n"
               "on another BS, and the live profit falls a few percent; re-admitting each\n"
               "mover keeps the allocation within a fraction of a percent of a\n"
               "from-scratch DMRA re-solve.\n";
  return 0;
}
