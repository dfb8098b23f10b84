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

// The UE step of Alg. 1 as the solver runs it: propose_soa over one UE's
// candidate row against a ResourceState, on a half-depleted ledger (every
// odd BS exhausted), so rows mix serviceable BSs with ones that stay in
// B_u because they sort after the choice.
void BM_PreferenceEval(benchmark::State& state) {
  dmra::ScenarioConfig cfg;
  cfg.num_ues = 500;
  const dmra::Scenario scenario = dmra::generate_scenario(cfg, 3);
  dmra::ResourceState rs(scenario);
  const std::vector<std::uint32_t> none(scenario.num_services(), 0);
  for (const dmra::BaseStation& b : scenario.bss())
    if (b.id.value % 2 == 1) rs.clamp_remaining(b.id, none, 0);
  std::vector<dmra::UeId> everyone(scenario.num_ues());
  for (std::size_t ui = 0; ui < everyone.size(); ++ui)
    everyone[ui] = dmra::UeId{static_cast<std::uint32_t>(ui)};
  dmra::LiveCandidates b_u;
  b_u.build(scenario, everyone);
  std::size_t ui = 0;
  std::size_t slots = 0;
  for (auto _ : state) {
    const dmra::UeId u = everyone[ui % everyone.size()];
    const dmra::ServiceId j = scenario.ue(u).service;
    const dmra::Proposal p = dmra::propose_soa(
        scenario, b_u, u, 100.0, [&rs, j](std::size_t, dmra::BsId i) {
          return std::pair<std::uint32_t, std::uint32_t>{rs.remaining_crus(i, j),
                                                         rs.remaining_rrbs(i)};
        });
    benchmark::DoNotOptimize(p);
    slots += scenario.candidates(u).size();
    ++ui;
  }
  state.counters["slots_per_call"] =
      benchmark::Counter(static_cast<double>(slots) / static_cast<double>(ui));
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
    const auto it = std::find(cands.begin(), cands.end(), bs);
    if (it == cands.end()) continue;
    const auto slot = static_cast<std::size_t>(it - cands.begin());
    proposals.push_back({u, static_cast<std::uint32_t>(cands.size()),
                         scenario.candidate_rrbs(u)[slot]});
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
