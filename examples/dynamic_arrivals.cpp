// Online operation: UEs arrive, dwell, move and leave while the allocator
// keeps serving — the "adjust the allocation in real time" setting the
// paper's §V motivates. Replays one seeded event stream through the
// library's serving driver, run_churn, once per admission rule: DMRA's
// built-in Eq. 17 rule, then DCSP and NonCo, each asked about every
// arrival alone against whatever capacity is left at that moment
// (IncrementalConfig::rule).
//
//   ./build/examples/dynamic_arrivals [--rate 8] [--dwell 100]
//       [--horizon 3000] [--move-every 0] [--seed 11]

#include <iostream>

#include "dmra/dmra.hpp"

int main(int argc, char** argv) {
  dmra::Cli cli;
  cli.add_flag("rate", "8", dmra::Cli::number(0),
               "Poisson UE arrival rate, arrivals per second");
  cli.add_flag("dwell", "100", dmra::Cli::number(0),
               "mean UE dwell time, seconds (exponential)");
  cli.add_flag("horizon", "3000", dmra::Cli::whole(0),
               "events to apply (the steady-state prefill counts)");
  cli.add_flag("move-every", "0", dmra::Cli::number(0),
               "mean seconds between waypoint moves per UE (0 = static UEs)");
  cli.add_flag("seed", "11", dmra::Cli::whole(0), "simulation seed");
  cli.parse_or_exit(argc, argv);

  dmra::ChurnConfig cfg;
  cfg.arrival_rate_hz = cli.get_double("rate");
  cfg.mean_dwell_s = cli.get_double("dwell");
  cfg.mean_move_interval_s = cli.get_double("move-every");
  cfg.prefill = cfg.steady_state_target();
  cfg.horizon_events = cli.get_size("horizon");
  cfg.resolve_every = cfg.horizon_events;  // one DMRA re-solve, at the end
  cfg.seed = cli.get_size("seed");

  const dmra::DcspAllocator dcsp;
  const dmra::NonCoAllocator nonco;
  struct Rule {
    const char* label;
    const dmra::Allocator* rule;
  };
  dmra::Table table({"rule", "served", "cloud", "readmitted", "reassociations",
                     "live profit", "gap to re-solve", "p50 decision (us)"});
  for (const Rule& r : {Rule{"DMRA (built-in)", nullptr}, Rule{"DCSP", &dcsp},
                        Rule{"NonCo", &nonco}}) {
    cfg.incremental.rule = r.rule;
    const dmra::ChurnResult result = dmra::run_churn(cfg);
    const dmra::ChurnStats& s = result.stats;
    table.add_row({r.label, std::to_string(s.final_served), std::to_string(s.final_cloud),
                   std::to_string(s.readmitted), std::to_string(s.reassociations),
                   dmra::fmt(s.final_profit), dmra::fmt(100.0 * s.resolve_gap_last, 2) + "%",
                   dmra::fmt(result.latency.percentile_ns(0.5) / 1e3, 2)});
  }
  std::cout << "Serving " << cfg.arrival_rate_hz << " arrivals/s, " << cfg.mean_dwell_s
            << " s mean dwell (steady state " << cfg.steady_state_target() << " UEs), "
            << cfg.horizon_events << " events\n\n"
            << table.to_aligned()
            << "\nreading: every rule admits through the same ledger, readmit sweeps and\n"
               "audits; only the placement decision differs. A foreign rule is asked\n"
               "on a one-UE residual scenario, so each decision costs a scenario build.\n";
  return 0;
}
