// Ablation A3: the coverage radius is the one deployment parameter the
// paper never states. Sweeping it shows how the density premise (every UE
// sees several BSs from several SPs) drives the results, and how
// sensitive DMRA's advantage is to it.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  dmra::Cli cli;
  cli.add_flag("radius", "300,400,500,600,800", dmra::Cli::number_above(0).as_list(),
               "coverage radii (m) to sweep");
  cli.add_flag("ues", "800", dmra::Cli::whole(0), "number of UEs");
  cli.add_flag("seeds", "5", dmra::Cli::whole(1), "seeds per configuration");
  dmra_bench::add_jobs_flag(cli);
  dmra_bench::add_obs_flags(cli);
  dmra_bench::add_fault_flags(cli);
  cli.parse_or_exit(argc, argv);
  for (const double radius : cli.get_double_list("radius")) {
    if (dmra::pricing_valid_for(dmra_bench::paper_config().pricing, radius)) continue;
    std::cerr << "error: --radius=" << radius << " breaks Eq. 16: a cross-SP UE at that "
              << "coverage radius would cost more than m_k - m_k^o\n";
    return 1;
  }
  const std::size_t num_ues = cli.get_size("ues");
  const auto seeds = dmra::default_seeds(cli.get_size("seeds"));
  dmra_bench::ObsSession obs_session(cli, argv[0]);
  const std::size_t jobs = cli.get_size("jobs");
  dmra::ScenarioConfig base_cfg = dmra_bench::paper_config();
  base_cfg.num_ues = num_ues;
  obs_session.describe_scenario(base_cfg);
  obs_session.describe_run(seeds, jobs);
  const auto faults = dmra_bench::faults_from(cli);

  std::cout << "== A3: coverage-radius ablation (" << num_ues
            << " UEs, iota=2, regular placement) ==\n\n";

  struct SeedValues {
    double f_u, uncovered, p_dmra, p_dcsp, p_nonco;
  };
  dmra::Table table({"radius (m)", "mean f_u", "uncovered UEs", "DMRA profit",
                     "DCSP profit", "NonCo profit"});
  for (const double radius : cli.get_double_list("radius")) {
    const auto per_seed = dmra::obs::traced_parallel_map(jobs, seeds.size(), [&](std::size_t si) {
      dmra::ScenarioConfig cfg = dmra_bench::paper_config();
      cfg.num_ues = num_ues;
      cfg.coverage_radius_m = radius;
      const dmra::Scenario scenario = dmra::generate_scenario(cfg, seeds[si]);

      double fu_sum = 0.0;
      std::size_t none = 0;
      for (std::size_t ui = 0; ui < scenario.num_ues(); ++ui) {
        const auto n = scenario.coverage_count(dmra::UeId{static_cast<std::uint32_t>(ui)});
        fu_sum += static_cast<double>(n);
        if (n == 0) ++none;
      }
      return SeedValues{
          fu_sum / static_cast<double>(scenario.num_ues()), static_cast<double>(none),
          dmra::total_profit(scenario,
                             dmra_bench::make_dmra({}, faults)->allocate(scenario)),
          dmra::total_profit(scenario, dmra::DcspAllocator().allocate(scenario)),
          dmra::total_profit(scenario, dmra::NonCoAllocator().allocate(scenario))};
    });
    dmra::RunningStats f_u, uncovered, p_dmra, p_dcsp, p_nonco;
    for (const SeedValues& v : per_seed) {  // seed order: jobs-invariant
      f_u.add(v.f_u);
      uncovered.add(v.uncovered);
      p_dmra.add(v.p_dmra);
      p_dcsp.add(v.p_dcsp);
      p_nonco.add(v.p_nonco);
    }
    table.add_row({dmra::fmt(radius, 0), dmra::fmt(f_u.mean(), 1),
                   dmra::fmt(uncovered.mean(), 1), dmra::fmt(p_dmra.mean()),
                   dmra::fmt(p_dcsp.mean()), dmra::fmt(p_nonco.mean())});
  }
  std::cout << table.to_aligned() << '\n';
  return 0;
}
