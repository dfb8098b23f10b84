// Ablation A4: how much of DMRA's advantage depends on NonCo being
// one-shot? Compares DMRA against both NonCo readings (one-shot, as the
// paper describes it; iterative, the strongest SP-blind max-SINR scheme)
// across load and both ι values.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  dmra::Cli cli;
  cli.add_flag("ues", "400,700,1000", dmra::Cli::whole(0).as_list(), "UE counts to sweep");
  cli.add_flag("seeds", "10", dmra::Cli::whole(1), "seeds per configuration");
  dmra_bench::add_jobs_flag(cli);
  dmra_bench::add_obs_flags(cli);
  dmra_bench::add_fault_flags(cli);
  cli.parse_or_exit(argc, argv);
  const auto seeds = dmra::default_seeds(cli.get_size("seeds"));
  dmra_bench::ObsSession obs_session(cli, argv[0]);
  const std::size_t jobs = cli.get_size("jobs");
  obs_session.describe_scenario(dmra_bench::paper_config());
  obs_session.describe_run(seeds, jobs);
  const auto faults = dmra_bench::faults_from(cli);

  std::cout << "== A4: NonCo semantics ablation (regular placement) ==\n\n";
  struct SeedValues {
    double dmra_p, oneshot_p, iter_p;
  };
  dmra::Table table({"iota", "UEs", "DMRA", "NonCo (one-shot)", "NonCo (iterative)",
                     "DMRA lead vs iter"});
  for (const double iota : {2.0, 1.1}) {
    for (const double ues : cli.get_double_list("ues")) {
      const auto per_seed = dmra::obs::traced_parallel_map(jobs, seeds.size(), [&](std::size_t si) {
        dmra::ScenarioConfig cfg = dmra_bench::paper_config();
        cfg.num_ues = static_cast<std::size_t>(ues);
        cfg.pricing.iota = iota;
        const dmra::Scenario s = dmra::generate_scenario(cfg, seeds[si]);
        return SeedValues{
            dmra::total_profit(s, dmra_bench::make_dmra({}, faults)->allocate(s)),
            dmra::total_profit(s, dmra::NonCoAllocator().allocate(s)),
            dmra::total_profit(
                s, dmra::NonCoAllocator(dmra::NonCoAllocator::Mode::kIterative).allocate(s))};
      });
      dmra::RunningStats dmra_p, oneshot_p, iter_p;
      for (const SeedValues& v : per_seed) {  // seed order: jobs-invariant
        dmra_p.add(v.dmra_p);
        oneshot_p.add(v.oneshot_p);
        iter_p.add(v.iter_p);
      }
      table.add_row({dmra::fmt(iota, 1), dmra::fmt(ues, 0), dmra::fmt(dmra_p.mean()),
                     dmra::fmt(oneshot_p.mean()), dmra::fmt(iter_p.mean()),
                     dmra::fmt(100.0 * (dmra_p.mean() / iter_p.mean() - 1.0), 1) + "%"});
    }
  }
  std::cout << table.to_aligned()
            << "\nreading: at iota=2 and moderate load DMRA leads even the strongest\n"
               "SP-blind max-SINR scheme (the same-SP margin at work). At saturation\n"
               "or iota~1 the iterative variant catches up or edges ahead: max-SINR\n"
               "serving is the most radio-efficient packing, and with no cross-SP\n"
               "markup to exploit DMRA has nothing left to monetize. The large and\n"
               "uniform Figs. 2-5 gap therefore also reflects NonCo's one-shot\n"
               "stranding, not the same-SP preference alone.\n";
  return 0;
}
