// The message-passing runtime in action: run DMRA as UE/SP/BS agents on
// the in-process bus, confirm the allocation equals the direct solver's,
// and report what the protocol costs in rounds and messages, split by
// kind and hop. Exits 1 if an allocation differs from the solver's.
//
//   ./build/examples/decentralized_runtime [--seed 3]

#include <iostream>

#include "dmra/dmra.hpp"

int main(int argc, char** argv) {
  dmra::Cli cli;
  cli.add_flag("seed", "3", dmra::Cli::whole(0), "scenario seed");
  cli.add_flag("rho", "100", dmra::Cli::number(0), "DMRA preference weight");
  cli.parse_or_exit(argc, argv);
  const std::uint64_t seed = cli.get_size("seed");
  const dmra::DmraConfig dmra_cfg{.rho = cli.get_double("rho")};

  std::cout << "Decentralized DMRA protocol cost vs deployment size\n\n";
  dmra::Table table({"UEs", "DMRA rounds", "bus rounds", "messages", "msgs/UE",
                     "identical to direct?"});
  dmra::Table split({"UEs", "UE>SP requests", "SP>BS proposals", "BS>SP decisions",
                     "SP>UE decisions", "BS publications", "UE receptions"});
  for (std::size_t ues : {100u, 250u, 500u, 1000u}) {
    dmra::ScenarioConfig cfg;
    cfg.num_ues = ues;
    const dmra::Scenario scenario = dmra::generate_scenario(cfg, seed);

    // The same algorithm, two execution models.
    const dmra::DmraResult direct = dmra::solve_dmra(scenario, dmra_cfg);
    const dmra::DecentralizedResult dec = dmra::run_decentralized_dmra(scenario, dmra_cfg);

    const bool identical = dec.dmra.allocation == direct.allocation;
    table.add_row({std::to_string(ues), std::to_string(dec.dmra.rounds),
                   std::to_string(dec.bus.rounds), std::to_string(dec.bus.messages_sent),
                   dmra::fmt(static_cast<double>(dec.bus.messages_sent) /
                             static_cast<double>(ues), 1),
                   identical ? "yes" : "NO (bug!)"});
    const dmra::MessageMix& m = dec.messages;
    split.add_row({std::to_string(ues), std::to_string(m.requests_ue_sp),
                   std::to_string(m.proposals_sp_bs), std::to_string(m.decisions_bs_sp),
                   std::to_string(m.decisions_sp_ue), std::to_string(m.publications),
                   std::to_string(m.receptions)});
    if (!identical) return 1;
  }
  std::cout << table.to_aligned() << "\nthe same messages by kind and hop:\n\n"
            << split.to_aligned()
            << "\nEvery row's allocation is bit-identical to the in-memory solver. A BS\n"
               "publishes its levels once on its broadcast channel (the bootstrap, then\n"
               "each round it answers proposals), one message however many UEs hear it;\n"
               "the five send columns sum to the messages column. Receptions are not\n"
               "sends: a UE still seeking reads its candidates' channels and counts one\n"
               "reception per newer publication; matched and cloud UEs read nothing.\n\n";

  // Part 2: the same protocol on a lossy network, described by a fault
  // plan that only drops messages. Safety (feasibility, no double-commit)
  // is preserved by idempotent re-acks; quality degrades gracefully with
  // the drop rate.
  dmra::ScenarioConfig cfg;
  cfg.num_ues = 500;
  const dmra::Scenario scenario = dmra::generate_scenario(cfg, seed);
  const double clean_profit =
      dmra::total_profit(scenario, dmra::solve_dmra(scenario, dmra_cfg).allocation);

  std::cout << "-- the same protocol under message loss (500 UEs) --\n\n";
  dmra::Table lossy({"drop rate", "profit vs reliable", "served", "rounds", "messages",
                     "dropped"});
  for (double drop : {0.0, 0.1, 0.25, 0.4}) {
    dmra::FaultPlan loss;
    loss.link.drop_probability = drop;
    const dmra::DecentralizedResult r = dmra::run_decentralized_dmra(
        scenario, dmra_cfg, dmra::NetworkConditions{.seed = seed, .faults = &loss});
    lossy.add_row({dmra::fmt(drop, 2),
                   dmra::fmt(100.0 * dmra::total_profit(scenario, r.dmra.allocation) /
                             clean_profit, 1) + "%",
                   std::to_string(r.dmra.allocation.num_served()),
                   std::to_string(r.dmra.rounds), std::to_string(r.bus.messages_sent),
                   std::to_string(r.bus.messages_dropped)});
  }
  std::cout << lossy.to_aligned()
            << "\nreading: losses cost retry rounds and traffic, not correctness — the\n"
               "BS-side ledger never double-commits, so every run stays feasible. Under\n"
               "loss every live BS publishes each round (one message each), and each\n"
               "channel read is lost on its own draw; retried requests and decisions are\n"
               "most of the extra traffic.\n";
  return 0;
}
