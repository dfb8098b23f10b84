// Multi-SP marketplace economics: who earns what under DMRA, and how the
// cross-SP markup ι shifts traffic and money between operators.
//
//   ./build/examples/multi_sp_marketplace [--ues 900] [--seed 7]

#include <iostream>

#include "dmra/dmra.hpp"

namespace {

dmra::Scenario make_scenario(std::size_t ues, double iota, std::uint64_t seed) {
  dmra::ScenarioConfig cfg;
  cfg.num_ues = ues;
  cfg.pricing.iota = iota;
  return dmra::generate_scenario(cfg, seed);
}

}  // namespace

int main(int argc, char** argv) {
  dmra::Cli cli;
  cli.add_flag("ues", "900", dmra::Cli::whole(0), "number of UEs");
  cli.add_flag("seed", "7", dmra::Cli::whole(0), "scenario seed");
  cli.parse_or_exit(argc, argv);
  const std::size_t ues = cli.get_size("ues");
  const std::uint64_t seed = cli.get_size("seed");

  // --- Part 1: per-SP ledger at the paper's ι = 2 --------------------------
  const dmra::Scenario scenario = make_scenario(ues, 2.0, seed);
  const dmra::Allocation alloc = dmra::DmraAllocator().allocate(scenario);
  const dmra::ProfitBreakdown profit = dmra::compute_profit(scenario, alloc);

  std::cout << "Per-SP ledger under DMRA (" << ues << " UEs, iota=2)\n\n";
  dmra::Table ledger({"SP", "subscribers", "served", "own-BS share", "profit W_k"});
  for (const dmra::ServiceProvider& sp : scenario.sps()) {
    std::size_t subs = 0, served = 0, own = 0;
    for (const dmra::UserEquipment& ue : scenario.ues()) {
      if (ue.sp != sp.id) continue;
      ++subs;
      const auto bs = alloc.bs_of(ue.id);
      if (!bs) continue;
      ++served;
      if (scenario.bs(*bs).sp == sp.id) ++own;
    }
    ledger.add_row({sp.name, std::to_string(subs), std::to_string(served),
                    served ? dmra::fmt(static_cast<double>(own) / served) : "-",
                    dmra::fmt(profit.per_sp[sp.id.idx()])});
  }
  std::cout << ledger.to_aligned() << '\n';
  std::cout << "network total: " << dmra::fmt(profit.total) << " (revenue "
            << dmra::fmt(profit.revenue) << " − BS payments " << dmra::fmt(profit.bs_payments)
            << " − other costs " << dmra::fmt(profit.other_costs) << ")\n\n";

  // --- Part 2: what-if on the cross-SP markup ι -----------------------------
  std::cout << "What-if: sweeping the cross-SP markup iota\n\n";
  dmra::Table whatif(
      {"iota", "total profit", "same-SP ratio", "served", "fwd traffic (Mbps)"});
  for (double iota : {1.1, 1.5, 2.0, 3.0}) {
    const dmra::Scenario s = make_scenario(ues, iota, seed);
    const dmra::RunMetrics m = dmra::evaluate(s, dmra::DmraAllocator().allocate(s));
    whatif.add_row({dmra::fmt(iota, 1), dmra::fmt(m.total_profit), dmra::fmt(m.same_sp_ratio),
                    std::to_string(m.served), dmra::fmt(m.forwarded_traffic_mbps)});
  }
  std::cout << whatif.to_aligned()
            << "\nreading: raising iota makes foreign BSs pricier, so DMRA routes more\n"
               "traffic onto each SP's own infrastructure (same-SP ratio climbs).\n";
  return 0;
}
