// M2: kernel microbenchmarks — the radio math, preference evaluation,
// and BS selection.

#include <benchmark/benchmark.h>

#include "dmra/dmra.hpp"
#include "mec/resources.hpp"

namespace {

void BM_Pathloss(benchmark::State& state) {
  double d = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dmra::pathloss_db(d));
    d = d < 2000.0 ? d + 1.0 : 1.0;
  }
}
BENCHMARK(BM_Pathloss);

void BM_SinrAndRrbs(benchmark::State& state) {
  const dmra::ChannelConfig ch;
  const dmra::OfdmaConfig of;
  double d = 10.0;
  for (auto _ : state) {
    const double s = dmra::sinr(ch, d, of.rrb_bandwidth_hz);
    const double e = dmra::rrb_rate_bps(of.rrb_bandwidth_hz, s);
    benchmark::DoNotOptimize(dmra::rrbs_needed(4e6, e));
    d = d < 1500.0 ? d + 3.0 : 10.0;
  }
}
BENCHMARK(BM_SinrAndRrbs);

void BM_PreferenceEval(benchmark::State& state) {
  dmra::ScenarioConfig cfg;
  cfg.num_ues = 500;
  const dmra::Scenario scenario = dmra::generate_scenario(cfg, 3);
  const dmra::ResourceState rs(scenario);
  std::size_t ui = 0;
  for (auto _ : state) {
    const dmra::UeId u{static_cast<std::uint32_t>(ui % scenario.num_ues())};
    const dmra::ServiceId j = scenario.ue(u).service;
    const auto cands = scenario.candidates(u);
    const auto prices = scenario.candidate_prices(u);
    double acc = 0.0;
    for (std::size_t k = 0; k < cands.size(); ++k)
      acc += dmra::ue_preference_value(prices[k], 100.0, rs.remaining_crus(cands[k], j),
                                       rs.remaining_rrbs(cands[k]));
    benchmark::DoNotOptimize(acc);
    ++ui;
  }
}
BENCHMARK(BM_PreferenceEval);

void BM_BsSelect(benchmark::State& state) {
  dmra::ScenarioConfig cfg;
  cfg.num_ues = 500;
  const dmra::Scenario scenario = dmra::generate_scenario(cfg, 3);
  // Center BS with all covered UEs as proposers — the worst-case inbox.
  const dmra::BsId bs{12};
  std::vector<dmra::ProposalInfo> proposals;
  for (std::size_t ui = 0; ui < scenario.num_ues(); ++ui) {
    const dmra::UeId u{static_cast<std::uint32_t>(ui)};
    const auto cands = scenario.candidates(u);
    if (std::find(cands.begin(), cands.end(), bs) != cands.end())
      proposals.push_back({u, static_cast<std::uint32_t>(cands.size())});
  }
  dmra::BsLocalResources local;
  local.crus = scenario.bs(bs).cru_capacity;
  local.rrbs = scenario.bs(bs).num_rrbs;
  for (auto _ : state) {
    const auto accepted = dmra::bs_select(scenario, bs, proposals, local);
    benchmark::DoNotOptimize(accepted.size());
  }
  state.counters["proposals"] = static_cast<double>(proposals.size());
}
BENCHMARK(BM_BsSelect);

// Raw bus throughput: N sends fanned across a fixed agent population,
// one batch deliver(), then every inbox drained. items_per_second is the
// msgs/sec figure tracked in docs/PERFORMANCE.md (ISSUE 7 before/after).
void BM_BusSendDeliver(benchmark::State& state) {
  const auto total = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kAgents = 256;
  dmra::MessageBus<std::uint64_t> bus;
  std::vector<dmra::AgentId> agents;
  agents.reserve(kAgents);
  for (std::size_t a = 0; a < kAgents; ++a)
    agents.push_back(bus.register_agent());
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (std::size_t m = 0; m < total; ++m)
      bus.send(agents[m % kAgents], agents[(m * 7 + 3) % kAgents], m);
    bus.deliver();
    for (const dmra::AgentId id : agents) {
      const auto inbox = bus.take_inbox(id);
      for (const auto& env : inbox) sink += env.payload;
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total));
}
BENCHMARK(BM_BusSendDeliver)->Arg(10000)->Arg(100000)->Arg(1000000);

}  // namespace
