// Figures 2–5: total SP profit vs. number of UEs, DMRA vs DCSP vs NonCo.
// One binary per figure via the DMRA_FIG compile definition:
//   2 — ι = 2,   regular BS placement
//   3 — ι = 2,   random BS placement
//   4 — ι = 1.1, regular BS placement
//   5 — ι = 1.1, random BS placement

#include <iostream>

#include "bench_common.hpp"

#ifndef DMRA_FIG
#define DMRA_FIG 2
#endif

namespace {

constexpr bool kRegular = (DMRA_FIG == 2 || DMRA_FIG == 4);
constexpr double kIota = (DMRA_FIG <= 3) ? 2.0 : 1.1;

}  // namespace

int main(int argc, char** argv) {
  dmra::Cli cli;
  cli.add_flag("ues", "400,500,600,700,800,900", dmra::Cli::whole(0).as_list(),
               "UE counts to sweep");
  cli.add_flag("seeds", "10", dmra::Cli::whole(1), "number of scenario seeds per point");
  cli.add_flag("rho", "100", dmra::Cli::number(0), "DMRA preference weight (Eq. 17)");
  cli.add_flag("csv", "false", dmra::Cli::yes_no(), "also print the table as CSV");
  cli.add_flag("out", "", dmra::Cli::text(), "write the series as CSV to this path");
  dmra_bench::add_jobs_flag(cli);
  dmra_bench::add_obs_flags(cli);
  dmra_bench::add_fault_flags(cli);
  cli.parse_or_exit(argc, argv);

  const dmra::DmraConfig dmra_cfg{.rho = cli.get_double("rho")};
  const auto faults = dmra_bench::faults_from(cli);
  const bool csv = cli.get_bool("csv");

  dmra::ExperimentSpec spec;
  spec.title = "Fig. " + std::to_string(DMRA_FIG) + ": total profit of SPs vs. number of UEs"
               " (iota=" + dmra::fmt(kIota, 1) + ", " +
               (kRegular ? "regular" : "random") + " BS placement)";
  spec.x_label = "UEs";
  spec.xs = cli.get_double_list("ues");
  spec.seeds = dmra::default_seeds(cli.get_size("seeds"));
  spec.make_config = [](double x) {
    dmra::ScenarioConfig cfg = dmra_bench::paper_config();
    cfg.num_ues = static_cast<std::size_t>(x);
    cfg.pricing.iota = kIota;
    cfg.placement =
        kRegular ? dmra::PlacementMethod::kRegularGrid : dmra::PlacementMethod::kRandom;
    return cfg;
  };
  spec.make_allocators = [&](double) {
    return dmra_bench::paper_allocators(dmra_cfg, faults);
  };
  dmra_bench::ObsSession obs_session(cli, argv[0]);
  spec.jobs = cli.get_size("jobs");
  obs_session.describe_scenario(spec.make_config(spec.xs.front()));
  obs_session.describe_run(spec.seeds, spec.jobs);
  const std::string out_path = cli.get_string("out");
  if (!out_path.empty()) obs_session.note_output("series-csv", out_path);

  const dmra::ExperimentResult result = dmra::run_experiment(spec);
  dmra_bench::print_result(result, csv, out_path);
  dmra_bench::print_dominance(result);
  return 0;
}
