// Quickstart: build one paper-default scenario, run DMRA and the two
// baselines, and print what the allocation looks like.
//
//   ./build/examples/quickstart [--ues 800] [--seed 42] [--rho 100] [--iota 2]

#include <iostream>

#include "dmra/dmra.hpp"

int main(int argc, char** argv) {
  dmra::Cli cli;
  cli.add_flag("ues", "800", dmra::Cli::whole(0), "number of UEs requesting offloading");
  cli.add_flag("seed", "42", dmra::Cli::whole(0), "scenario seed");
  cli.add_flag("rho", "100", dmra::Cli::number(0), "DMRA preference weight (Eq. 17)");
  cli.add_flag("iota", "2", dmra::Cli::number_above(1), "cross-SP price markup (Eq. 10)");
  cli.parse_or_exit(argc, argv);

  // 1. A scenario with the paper's §VI-A defaults: 5 SPs × 5 BSs on a
  //    300 m grid, 6 services, U{100..150} CRUs per (BS, service).
  dmra::ScenarioConfig cfg;
  cfg.num_ues = cli.get_size("ues");
  cfg.pricing.iota = cli.get_double("iota");
  if (!dmra::pricing_valid_for(cfg.pricing, cfg.coverage_radius_m)) {
    std::cerr << "error: --iota=" << cfg.pricing.iota << " breaks Eq. 16: a cross-SP UE at the "
              << cfg.coverage_radius_m << " m coverage radius would cost more than m_k - m_k^o\n";
    return 1;
  }
  const dmra::Scenario scenario = dmra::generate_scenario(cfg, cli.get_size("seed"));

  std::cout << "scenario: " << scenario.num_sps() << " SPs, " << scenario.num_bss()
            << " BSs, " << scenario.num_ues() << " UEs, " << scenario.num_services()
            << " services\n\n";

  // 2. Run DMRA and the paper's baselines through the common interface.
  const dmra::DmraConfig dmra_cfg{.rho = cli.get_double("rho")};
  std::vector<dmra::AllocatorPtr> algos;
  algos.push_back(std::make_unique<dmra::DmraAllocator>(dmra_cfg));
  algos.push_back(std::make_unique<dmra::DcspAllocator>());
  algos.push_back(std::make_unique<dmra::NonCoAllocator>());

  dmra::Table table({"algorithm", "total profit", "served", "cloud", "fwd traffic (Mbps)",
                     "same-SP ratio", "RRB util"});
  for (const auto& algo : algos) {
    const dmra::Allocation alloc = algo->allocate(scenario);

    // 3. Always re-validate: Eq. 12–16 hold or check_feasibility says why not.
    const auto feas = dmra::check_feasibility(scenario, alloc);
    if (!feas.ok) {
      std::cerr << algo->name() << " produced an infeasible allocation:\n";
      for (const auto& v : feas.violations) std::cerr << "  " << v << '\n';
      return 1;
    }

    const dmra::RunMetrics m = dmra::evaluate(scenario, alloc);
    table.add_row({algo->name(), dmra::fmt(m.total_profit), std::to_string(m.served),
                   std::to_string(m.cloud), dmra::fmt(m.forwarded_traffic_mbps),
                   dmra::fmt(m.same_sp_ratio), dmra::fmt(m.mean_rrb_utilization)});
  }
  std::cout << table.to_aligned() << '\n';

  // 4. Convergence diagnostics for DMRA itself.
  const dmra::DmraResult r = dmra::solve_dmra(scenario, dmra_cfg);
  std::cout << "DMRA converged in " << r.rounds << " rounds, " << r.proposals_sent
            << " proposals (" << r.rejections << " rejections)\n";
  return 0;
}
