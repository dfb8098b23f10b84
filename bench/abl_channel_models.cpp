// Ablation A5: propagation-environment sensitivity. Swaps the large-scale
// path-loss model and adds log-normal shadowing, then reruns the Fig. 2
// comparison at one load point. Shows which conclusions survive a
// different radio environment (DMRA's ordering does; absolute profit and
// the served count do not).

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  dmra::Cli cli;
  cli.add_flag("ues", "800", dmra::Cli::whole(0), "number of UEs");
  cli.add_flag("seeds", "5", dmra::Cli::whole(1), "seeds per configuration");
  cli.add_flag("shadowing", "0,4,8", dmra::Cli::number(0).as_list(),
               "shadowing sigmas (dB) to sweep");
  dmra_bench::add_jobs_flag(cli);
  dmra_bench::add_obs_flags(cli);
  dmra_bench::add_fault_flags(cli);
  cli.parse_or_exit(argc, argv);
  const std::size_t num_ues = cli.get_size("ues");
  const auto seeds = dmra::default_seeds(cli.get_size("seeds"));
  dmra_bench::ObsSession obs_session(cli, argv[0]);
  const std::size_t jobs = cli.get_size("jobs");
  dmra::ScenarioConfig base_cfg = dmra_bench::paper_config();
  base_cfg.num_ues = num_ues;
  obs_session.describe_scenario(base_cfg);
  obs_session.describe_run(seeds, jobs);
  const auto faults = dmra_bench::faults_from(cli);

  std::cout << "== A5: path-loss model x shadowing ablation (" << num_ues
            << " UEs, iota=2) ==\n\n";
  struct SeedValues {
    double p_dmra, p_dcsp, p_nonco, served;
  };
  dmra::Table table({"model", "shadow (dB)", "DMRA", "DCSP", "NonCo", "DMRA served"});

  for (const auto model :
       {dmra::PathlossModel::kPaperEq18, dmra::PathlossModel::kLteMacro,
        dmra::PathlossModel::kFreeSpace, dmra::PathlossModel::kTwoRay}) {
    for (const double sigma : cli.get_double_list("shadowing")) {
      const auto per_seed = dmra::obs::traced_parallel_map(jobs, seeds.size(), [&](std::size_t si) {
        dmra::ScenarioConfig cfg = dmra_bench::paper_config();
        cfg.num_ues = num_ues;
        cfg.channel.pathloss_model = model;
        cfg.channel.shadowing_sigma_db = sigma;
        cfg.channel.shadowing_seed = seeds[si];
        const dmra::Scenario s = dmra::generate_scenario(cfg, seeds[si]);
        const dmra::RunMetrics md =
            dmra::evaluate(s, dmra_bench::make_dmra({}, faults)->allocate(s));
        return SeedValues{md.total_profit,
                          dmra::total_profit(s, dmra::DcspAllocator().allocate(s)),
                          dmra::total_profit(s, dmra::NonCoAllocator().allocate(s)),
                          static_cast<double>(md.served)};
      });
      dmra::RunningStats p_dmra, p_dcsp, p_nonco, served;
      for (const SeedValues& v : per_seed) {  // seed order: jobs-invariant
        p_dmra.add(v.p_dmra);
        p_dcsp.add(v.p_dcsp);
        p_nonco.add(v.p_nonco);
        served.add(v.served);
      }
      table.add_row({dmra::pathloss_model_name(model), dmra::fmt(sigma, 0),
                     dmra::fmt(p_dmra.mean()), dmra::fmt(p_dcsp.mean()),
                     dmra::fmt(p_nonco.mean()), dmra::fmt(served.mean(), 0)});
    }
  }
  std::cout << table.to_aligned() << '\n';
  return 0;
}
