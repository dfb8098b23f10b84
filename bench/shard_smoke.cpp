// Shard-smoke gate: run the region-sharded runtime against the
// single-bus oracle on one scenario and fail when the profit gap
// exceeds the documented bound.
//
//   ./build/bench/shard_smoke [--ues N] [--shards K] [--seed S] [--max-gap G]
//                             [--jobs J] [--trace F] [--round-csv F] [--postmortem F]
//
// Prints a one-line verdict with both profits, the relative gap, and
// the shard/boundary accounting; exits 1 when the gap exceeds
// --max-gap (a fraction: 0.05 = sharding may cost at most 5% of the
// oracle's profit), or when the sharded allocation is infeasible, and
// with an error naming the flag when a value is out of its range (--help
// lists them). CI runs this at 2 and 4 shards (see
// .github/workflows/ci.yml); at 8 shards on 3000 UEs, where every UE is a
// boundary UE and the reconcile pass alone must reach the oracle's
// profit; and once more traced at --jobs=1 and --jobs=4 to prove the
// exports are byte-identical. The quality contract it enforces is
// documented in docs/PERFORMANCE.md and pinned at finer grain by
// tests/core/sharded_test.cpp.

// Same PR105593-family false positive documented in mec/scenario_io.cpp:
// GCC 12's -Wmaybe-uninitialized flags moved-from JsonValue temporaries.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ <= 12
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <iostream>
#include <string>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  dmra::Cli cli;
  cli.add_flag("ues", "20000", dmra::Cli::whole(1), "number of UEs in the generated scenario");
  cli.add_flag("shards", "4", dmra::Cli::whole(1), "region count for the sharded runtime");
  cli.add_flag("seed", "1", dmra::Cli::whole(0), "scenario generation seed");
  cli.add_flag("max-gap", "0.05", dmra::Cli::number(0),
               "largest tolerated relative profit gap vs the oracle");
  dmra_bench::add_jobs_flag(cli);
  dmra_bench::add_obs_flags(cli);
  cli.parse_or_exit(argc, argv);
  const std::size_t ues = cli.get_size("ues");
  const std::size_t shards = cli.get_size("shards");
  const std::uint64_t seed = cli.get_size("seed");
  const double max_gap = cli.get_double("max-gap");
  dmra_bench::ObsSession obs_session(cli, argv[0]);
  const std::size_t jobs = cli.get_size("jobs");

  dmra::ScenarioConfig cfg = dmra_bench::paper_config();
  cfg.num_ues = ues;
  obs_session.describe_scenario(cfg);
  obs_session.describe_run({seed}, jobs);
  const dmra::Scenario scenario = dmra::generate_scenario(cfg, seed);

  const dmra::DecentralizedResult oracle = dmra::run_decentralized_dmra(scenario);
  const double oracle_profit = dmra::total_profit(scenario, oracle.dmra.allocation);

  const dmra::ShardedResult sharded = dmra::run_sharded_dmra(
      scenario, {}, {.num_shards = shards, .jobs = jobs});
  const double profit = dmra::total_profit(scenario, sharded.dmra.allocation);

  const dmra::FeasibilityReport feasibility =
      dmra::check_feasibility(scenario, sharded.dmra.allocation);
  const double gap =
      oracle_profit > 0.0 ? 1.0 - profit / oracle_profit : 0.0;

  std::cout << "shard_smoke: ues=" << ues << " shards=" << sharded.shard.num_shards
            << " seed=" << seed << "\n"
            << "  oracle profit  " << dmra::fmt(oracle_profit, 2) << " ("
            << oracle.dmra.rounds << " rounds)\n"
            << "  sharded profit " << dmra::fmt(profit, 2) << " (max shard rounds "
            << sharded.shard.max_shard_rounds << ", reconcile rounds "
            << sharded.shard.reconcile_rounds << ")\n"
            << "  gap " << dmra::fmt(100.0 * gap, 3) << "% (bound "
            << dmra::fmt(100.0 * max_gap, 3) << "%), interior "
            << sharded.shard.interior_ues << ", boundary " << sharded.shard.boundary_ues
            << " (reconciled " << sharded.shard.boundary_ues_reconciled << "), cloud-only "
            << sharded.shard.cloud_only_ues << "\n";

  bool ok = true;
  if (!feasibility.ok) {
    std::cerr << "FAIL: sharded allocation infeasible\n" << feasibility;
    ok = false;
  }
  if (gap > max_gap) {
    std::cerr << "FAIL: profit gap " << dmra::fmt(100.0 * gap, 3)
              << "% exceeds the " << dmra::fmt(100.0 * max_gap, 3) << "% bound\n";
    ok = false;
  }
  if (ok) std::cout << "OK\n";
  return ok ? 0 : 1;
}
