// Ablation A2: which parts of DMRA's BS-side preference actually earn the
// profit? Disables each design choice of Alg. 1 in turn:
//   full        — same-SP first, then min f_u, then min footprint (paper)
//   no-same-sp  — drop the same-SP pool preference
//   no-f_u      — drop the fewest-covering-BSs tie-break
//   no-footprint— drop the resource-footprint tie-break
//   price-only  — rho = 0 (UE side ignores remaining resources)

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  dmra::Cli cli;
  cli.add_flag("ues", "800,1000", dmra::Cli::whole(0).as_list(), "UE counts to sweep");
  cli.add_flag("seeds", "10", dmra::Cli::whole(1), "seeds per configuration");
  cli.add_flag("rho", "100", dmra::Cli::number(0), "baseline rho");
  dmra_bench::add_jobs_flag(cli);
  dmra_bench::add_obs_flags(cli);
  dmra_bench::add_fault_flags(cli);
  cli.parse_or_exit(argc, argv);
  const double rho = cli.get_double("rho");

  struct Variant {
    const char* label;
    dmra::DmraConfig config;
  };
  const std::vector<Variant> variants = {
      {"full", dmra::DmraConfig{.rho = rho}},
      {"no-same-sp", dmra::DmraConfig{.rho = rho, .prefer_same_sp = false}},
      {"no-f_u", dmra::DmraConfig{.rho = rho, .use_coverage_count = false}},
      {"no-footprint", dmra::DmraConfig{.rho = rho, .use_footprint = false}},
      {"price-only (rho=0)", dmra::DmraConfig{.rho = 0.0}},
  };

  const auto seeds = dmra::default_seeds(cli.get_size("seeds"));
  dmra_bench::ObsSession obs_session(cli, argv[0]);
  const std::size_t jobs = cli.get_size("jobs");
  obs_session.describe_scenario(dmra_bench::paper_config());
  obs_session.describe_run(seeds, jobs);
  const auto faults = dmra_bench::faults_from(cli);
  std::cout << "== A2: DMRA tie-break ablation (iota=2, regular placement) ==\n\n";

  dmra::Table table({"UEs", "variant", "total profit", "served", "same-SP ratio"});
  for (const double ues : cli.get_double_list("ues")) {
    for (const Variant& v : variants) {
      const auto per_seed = dmra::obs::traced_parallel_map(jobs, seeds.size(), [&](std::size_t si) {
        dmra::ScenarioConfig cfg = dmra_bench::paper_config();
        cfg.num_ues = static_cast<std::size_t>(ues);
        const dmra::Scenario scenario = dmra::generate_scenario(cfg, seeds[si]);
        const auto algo = dmra_bench::make_dmra(v.config, faults);
        return dmra::evaluate(scenario, algo->allocate(scenario));
      });
      dmra::RunningStats profit, served, same_sp;
      for (const dmra::RunMetrics& m : per_seed) {  // seed order: jobs-invariant
        profit.add(m.total_profit);
        served.add(static_cast<double>(m.served));
        same_sp.add(m.same_sp_ratio);
      }
      table.add_row({dmra::fmt(ues, 0), v.label, dmra::fmt_pm(profit.mean(),
                     dmra::ci95_halfwidth(profit)), dmra::fmt(served.mean(), 0),
                     dmra::fmt(same_sp.mean())});
    }
  }
  std::cout << table.to_aligned() << '\n';
  return 0;
}
