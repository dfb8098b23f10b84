// Figures 6 & 7: the effect of the preference weight ρ (Eq. 17) at 1000
// UEs with regular BS placement.
//   Fig. 6 — total SP profit vs. ρ           (ι = 2)
//   Fig. 7 — total forwarded traffic vs. ρ   (ι = 1.1)
// The paper's claim: larger ρ steers UEs toward BSs with more remaining
// resources, so fewer tasks overflow to the cloud — profit rises,
// forwarded load falls.

#include <iostream>

#include "bench_common.hpp"

#ifndef DMRA_FIG
#define DMRA_FIG 6
#endif

namespace {
constexpr bool kProfit = (DMRA_FIG == 6);
constexpr double kIota = kProfit ? 2.0 : 1.1;
}  // namespace

int main(int argc, char** argv) {
  dmra::Cli cli;
  cli.add_flag("rho", "0,50,100,150,200,300,400", dmra::Cli::number(0).as_list(),
               "rho values to sweep");
  cli.add_flag("ues", "1000", dmra::Cli::whole(0), "number of UEs");
  cli.add_flag("seeds", "10", dmra::Cli::whole(1), "number of scenario seeds per point");
  cli.add_flag("csv", "false", dmra::Cli::yes_no(), "also print the table as CSV");
  cli.add_flag("out", "", dmra::Cli::text(), "write the series as CSV to this path");
  dmra_bench::add_jobs_flag(cli);
  dmra_bench::add_obs_flags(cli);
  dmra_bench::add_fault_flags(cli);
  cli.parse_or_exit(argc, argv);
  const std::size_t num_ues = cli.get_size("ues");
  const auto faults = dmra_bench::faults_from(cli);
  const bool csv = cli.get_bool("csv");

  dmra::ExperimentSpec spec;
  spec.title = kProfit
                   ? std::string("Fig. 6: total profit of SPs vs. rho (iota=2, 1000 UEs)")
                   : std::string(
                         "Fig. 7: total forwarded traffic load vs. rho (iota=1.1, 1000 UEs)");
  spec.x_label = "rho";
  spec.xs = cli.get_double_list("rho");
  spec.seeds = dmra::default_seeds(cli.get_size("seeds"));
  spec.metric_label = kProfit ? "total profit" : "forwarded traffic (Mbps)";
  spec.metric = [](const dmra::RunMetrics& m) {
    return kProfit ? m.total_profit : m.forwarded_traffic_mbps;
  };
  spec.make_config = [&](double) {
    dmra::ScenarioConfig cfg = dmra_bench::paper_config();
    cfg.num_ues = num_ues;
    cfg.pricing.iota = kIota;
    cfg.placement = dmra::PlacementMethod::kRegularGrid;
    return cfg;
  };
  spec.make_allocators = [&](double rho) {
    std::vector<dmra::AllocatorPtr> algos;
    algos.push_back(dmra_bench::make_dmra(dmra::DmraConfig{.rho = rho}, faults));
    return algos;
  };
  dmra_bench::ObsSession obs_session(cli, argv[0]);
  spec.jobs = cli.get_size("jobs");
  obs_session.describe_scenario(spec.make_config(spec.xs.front()));
  obs_session.describe_run(spec.seeds, spec.jobs);
  const std::string out_path = cli.get_string("out");
  if (!out_path.empty()) obs_session.note_output("series-csv", out_path);

  const dmra::ExperimentResult result = dmra::run_experiment(spec);
  dmra_bench::print_result(result, csv, out_path);

  // Shape check: monotone trend from the first to the last sweep point.
  const double first = result.cells.front()[0].mean;
  const double last = result.cells.back()[0].mean;
  if (kProfit) {
    std::cout << "shape check: profit " << (last >= first ? "rises" : "FALLS")
              << " with rho (" << dmra::fmt(first) << " -> " << dmra::fmt(last) << ")\n";
  } else {
    std::cout << "shape check: forwarded load " << (last <= first ? "falls" : "RISES")
              << " with rho (" << dmra::fmt(first) << " -> " << dmra::fmt(last) << ")\n";
  }
  return 0;
}
