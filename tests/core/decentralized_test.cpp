#include "core/decentralized.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../test_util.hpp"
#include "core/dmra_allocator.hpp"
#include "core/solver.hpp"
#include "mec/resources.hpp"
#include "obs/recorder.hpp"
#include "sim/feasibility.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

TEST(Decentralized, TinyScenarioMatchesDirectSolver) {
  const Scenario s = test::two_bs_scenario(4);
  const DmraResult direct = solve_dmra(s);
  const DecentralizedResult dec = run_decentralized_dmra(s);
  EXPECT_EQ(dec.dmra.allocation, direct.allocation);
  EXPECT_EQ(dec.dmra.rounds, direct.rounds);
  EXPECT_EQ(dec.dmra.proposals_sent, direct.proposals_sent);
  EXPECT_EQ(dec.dmra.rejections, direct.rejections);
}

// The central claim: the message-passing protocol computes exactly the
// allocation of the in-memory solver, across sizes, seeds, and configs.
class EquivalenceProperty
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(EquivalenceProperty, ProtocolEqualsDirectSolver) {
  const auto [ues, seed, rho] = GetParam();
  ScenarioConfig cfg;
  cfg.num_ues = static_cast<std::size_t>(ues);
  const Scenario s = generate_scenario(cfg, static_cast<std::uint64_t>(seed));
  const DmraConfig dc{.rho = rho};
  const DmraResult direct = solve_dmra(s, dc);
  const DecentralizedResult dec = run_decentralized_dmra(s, dc);
  EXPECT_EQ(dec.dmra.allocation, direct.allocation);
  EXPECT_EQ(dec.dmra.rounds, direct.rounds);
  EXPECT_EQ(dec.dmra.proposals_sent, direct.proposals_sent);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EquivalenceProperty,
                         ::testing::Combine(::testing::Values(30, 150, 500),
                                            ::testing::Values(1, 2, 3),
                                            ::testing::Values(0.0, 100.0, 1000.0)));

TEST(Decentralized, EquivalentUnderEveryScenarioFlavour) {
  // The equivalence must hold for every scenario feature, not only the
  // paper defaults: random placement, shadowed channels, hotspot
  // populations, Zipf services, per-BS price multipliers.
  struct Flavour {
    const char* label;
    ScenarioConfig cfg;
  };
  std::vector<Flavour> flavours;
  {
    ScenarioConfig cfg;
    cfg.num_ues = 250;
    cfg.placement = PlacementMethod::kRandom;
    flavours.push_back({"random placement", cfg});
  }
  {
    ScenarioConfig cfg;
    cfg.num_ues = 250;
    cfg.channel.shadowing_sigma_db = 6.0;
    cfg.channel.shadowing_seed = 4;
    flavours.push_back({"shadowing", cfg});
  }
  {
    ScenarioConfig cfg;
    cfg.num_ues = 250;
    cfg.ue_distribution = UeDistribution::kHotspots;
    cfg.service_popularity = ServicePopularity::kZipf;
    flavours.push_back({"hotspots+zipf", cfg});
  }
  {
    ScenarioConfig cfg;
    cfg.num_ues = 250;
    cfg.channel.pathloss_model = PathlossModel::kLteMacro;
    flavours.push_back({"lte-macro pathloss", cfg});
  }
  for (const Flavour& f : flavours) {
    const Scenario s = generate_scenario(f.cfg, 21);
    EXPECT_EQ(run_decentralized_dmra(s).dmra.allocation, solve_dmra(s).allocation)
        << f.label;
  }
}

TEST(Decentralized, EquivalentUnderPriceMultipliers) {
  ScenarioConfig cfg;
  cfg.num_ues = 200;
  const Scenario base = generate_scenario(cfg, 23);
  ScenarioData data;
  data.num_services = base.num_services();
  data.sps.assign(base.sps().begin(), base.sps().end());
  data.bss.assign(base.bss().begin(), base.bss().end());
  for (std::size_t i = 0; i < data.bss.size(); ++i)
    data.bss[i].price_multiplier = 0.8 + 0.05 * static_cast<double>(i % 10);
  data.ues.assign(base.ues().begin(), base.ues().end());
  data.channel = base.channel();
  data.ofdma = base.ofdma();
  data.pricing = base.pricing();
  data.coverage_radius_m = base.coverage_radius_m();
  const Scenario s(std::move(data));
  EXPECT_EQ(run_decentralized_dmra(s).dmra.allocation, solve_dmra(s).allocation);
}

TEST(Decentralized, EquivalentUnderAblationConfigs) {
  ScenarioConfig cfg;
  cfg.num_ues = 200;
  const Scenario s = generate_scenario(cfg, 7);
  for (const DmraConfig dc : {DmraConfig{.prefer_same_sp = false},
                              DmraConfig{.use_coverage_count = false}}) {
    EXPECT_EQ(run_decentralized_dmra(s, dc).dmra.allocation,
              solve_dmra(s, dc).allocation);
  }
}

TEST(Decentralized, BusTrafficIsAccounted) {
  ScenarioConfig cfg;
  cfg.num_ues = 100;
  const Scenario s = generate_scenario(cfg, 11);
  const DecentralizedResult r = run_decentralized_dmra(s);
  EXPECT_GT(r.bus.messages_sent, 0u);
  EXPECT_EQ(r.bus.messages_sent, r.bus.messages_delivered);
  // Each DMRA iteration is 4 bus rounds plus the bootstrap broadcast and
  // the final empty round that detects quiescence.
  EXPECT_GE(r.bus.rounds, 4 * r.dmra.rounds + 1);
  // Every proposal travels UE→SP→BS and is answered BS→SP→UE: at least
  // four messages per proposal, plus broadcasts.
  EXPECT_GT(r.bus.messages_sent, 4 * r.dmra.proposals_sent);
}

TEST(Decentralized, MessageKindsSumToBusTotal) {
  // Every send is counted under exactly one kind, on the reliable path,
  // under a plan whose delays make the SP relays route displaced messages
  // and whose crash arms recovery, and summed over the shards of a run.
  ScenarioConfig cfg;
  cfg.num_ues = 300;
  const Scenario s = generate_scenario(cfg, 5);
  const DecentralizedResult reliable = run_decentralized_dmra(s);
  EXPECT_EQ(reliable.messages.total(), reliable.bus.messages_sent);
  EXPECT_EQ(reliable.messages.requests_ue_sp, reliable.dmra.proposals_sent);
  EXPECT_EQ(reliable.messages.proposals_sp_bs, reliable.dmra.proposals_sent);
  EXPECT_EQ(reliable.messages.decisions_bs_sp, reliable.dmra.proposals_sent);
  EXPECT_EQ(reliable.messages.decisions_sp_ue, reliable.dmra.proposals_sent);

  FaultPlan plan;
  plan.link = {.drop_probability = 0.1,
               .duplicate_probability = 0.05,
               .delay_probability = 0.1,
               .max_delay_rounds = 3};
  plan.outages.push_back({.bs = BsId{2}, .crash_round = 2, .recover_round = 6});
  const DecentralizedResult faulted =
      run_decentralized_dmra(s, {}, {.seed = 5, .faults = &plan});
  ASSERT_GT(faulted.bus.messages_delayed, 0u);
  EXPECT_EQ(faulted.messages.total(), faulted.bus.messages_sent);
  // Under faults every broadcast goes straight to the audience.
  EXPECT_EQ(faulted.messages.levels_bs_sp, 0u);
  EXPECT_EQ(faulted.messages.levels_sp_ue, 0u);

  const ShardedResult sharded = run_sharded_dmra(s, {}, {.num_shards = 3});
  EXPECT_EQ(sharded.messages.total(), sharded.bus.messages_sent);
}

TEST(Decentralized, SettledUeHearsNoFurtherLevels) {
  // One BS and four UEs of one SP, every UE close enough to fit. Three
  // share service 0, so bs_select admits one of them per round; the
  // service-1 UE is admitted in round 0 beside the first of them. Each
  // round with proposals the BS sends its levels once to the SP, which
  // relays the decisions first and then forwards the levels only to the
  // UEs it has not relayed an accept to, so a UE accepted in round r
  // hears no levels from round r on.
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0.0, 0.0});
  for (const double x : {40.0, 60.0, 80.0}) ms.add_ue(sp, {x, 0.0}, ServiceId{0});
  ms.add_ue(sp, {50.0, 20.0}, ServiceId{1});
  const Scenario s = ms.build();

  obs::TraceRecorder rec;
  DecentralizedResult r;
  {
    obs::ScopedTraceRecorder install(&rec);
    r = run_decentralized_dmra(s);
  }
  EXPECT_EQ(r.dmra.allocation, solve_dmra(s).allocation);
  EXPECT_EQ(r.dmra.allocation.num_served(), 4u);
  ASSERT_EQ(r.dmra.rounds, 3u);
  EXPECT_EQ(r.dmra.proposals_sent, 4u + 2u + 1u);

  const MessageMix& m = r.messages;
  EXPECT_EQ(m.levels_bs_ue, 4u);  // the bootstrap, to the whole audience
  EXPECT_EQ(m.requests_ue_sp, 7u);
  EXPECT_EQ(m.proposals_sp_bs, 7u);
  EXPECT_EQ(m.decisions_bs_sp, 7u);
  EXPECT_EQ(m.decisions_sp_ue, 7u);
  EXPECT_EQ(m.levels_bs_sp, 3u);  // one per round with proposals
  // Round 0 leaves 2 seeking, round 1 leaves 1, round 2 leaves none.
  // Forwarding to every subscriber would make this 12; forwarding to
  // those not accepted before the round, 4 + 2 + 1 = 7.
  EXPECT_EQ(m.levels_sp_ue, 2u + 1u + 0u);
  EXPECT_EQ(m.total(), 38u);
  EXPECT_EQ(r.bus.messages_sent, 38u);

  // The same split per round: proposals, relays and decisions at four
  // messages per proposer, one BS → SP update, then the forwarded ones.
  const auto rows = rec.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].messages, 4u * 4u + 1u + 2u);
  EXPECT_EQ(rows[1].messages, 2u * 4u + 1u + 1u);
  EXPECT_EQ(rows[2].messages, 1u * 4u + 1u + 0u);
  EXPECT_EQ(rec.metrics().counter("msg.levels_sp_ue"), 3u);
  EXPECT_EQ(rec.metrics().counter("msg.levels_bs_sp"), 3u);
}

TEST(Decentralized, EquivalentOnTheDenseDeployment) {
  // The benchmark's deployment (100 BSs in a 3000 m arena) at 4000 UEs,
  // about 1.1x what the MEC layer can serve: many rounds, and many UEs
  // settled long before the last broadcast. Also with three services per
  // BS, where a covered UE that cannot be served is in no audience.
  ScenarioConfig dense;
  dense.bss_per_sp = 20;
  dense.area_side_m = 3000.0;
  dense.num_ues = 4000;
  ScenarioConfig partial_hosting = dense;
  partial_hosting.services_per_bs = 3;
  struct Case {
    const char* label;
    ScenarioConfig cfg;
    DmraConfig dmra;
  };
  for (const Case& c : {Case{"as is", dense, {}},
                        Case{"services_per_bs = 3", partial_hosting, {}}}) {
    SCOPED_TRACE(c.label);
    const Scenario s = generate_scenario(c.cfg, 8);
    const DmraResult direct = solve_dmra(s, c.dmra);
    const DecentralizedResult dec = run_decentralized_dmra(s, c.dmra);
    EXPECT_EQ(dec.dmra.allocation, direct.allocation);
    EXPECT_EQ(dec.dmra.rounds, direct.rounds);
    EXPECT_EQ(dec.dmra.proposals_sent, direct.proposals_sent);
    EXPECT_GT(dec.dmra.rounds, 5u);
    EXPECT_EQ(dec.messages.total(), dec.bus.messages_sent);

    // One shard is the oracle, traffic included.
    const ShardedResult one = run_sharded_dmra(s, c.dmra, {.num_shards = 1});
    EXPECT_EQ(one.dmra.allocation, dec.dmra.allocation);
    EXPECT_EQ(one.dmra.rounds, dec.dmra.rounds);
    EXPECT_EQ(one.dmra.proposals_sent, dec.dmra.proposals_sent);
    EXPECT_EQ(one.bus.messages_sent, dec.bus.messages_sent);
    EXPECT_EQ(one.bus.rounds, dec.bus.rounds);
    EXPECT_EQ(one.messages.levels_sp_ue, dec.messages.levels_sp_ue);

    // Three shards run the engine per region, then reconcile the boundary:
    // the same as the solver over the interior UEs (the regions share no
    // BS, so one partial solve covers them all), then over the boundary.
    const ShardedResult three = run_sharded_dmra(s, c.dmra, {.num_shards = 3});
    const RegionPartition part = partition_regions(s, 3);
    std::vector<UeId> interior = part.region_ues;
    std::sort(interior.begin(), interior.end());
    ResourceState state(s);
    Allocation composed(s.num_ues());
    const DmraResult inner = solve_dmra_partial(s, c.dmra, state, composed, interior);
    const DmraResult outer =
        solve_dmra_partial(s, c.dmra, state, composed, part.boundary_ues);
    EXPECT_EQ(three.dmra.allocation, composed);
    EXPECT_EQ(three.dmra.proposals_sent, inner.proposals_sent + outer.proposals_sent);
    EXPECT_EQ(three.dmra.rounds, inner.rounds);
    EXPECT_EQ(three.messages.total(), three.bus.messages_sent);
  }
}

TEST(Decentralized, FeasibleOnItsOwn) {
  ScenarioConfig cfg;
  cfg.num_ues = 300;
  const Scenario s = generate_scenario(cfg, 13);
  const DecentralizedResult r = run_decentralized_dmra(s);
  EXPECT_TRUE(check_feasibility(s, r.dmra.allocation).ok);
}

TEST(Decentralized, HandlesUncoverableUes) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {5000, 5000}, ServiceId{0});
  const Scenario s = ms.build();
  const DecentralizedResult r = run_decentralized_dmra(s);
  EXPECT_TRUE(r.dmra.allocation.is_cloud(UeId{0}));
  EXPECT_EQ(r.dmra.rounds, 0u);
}

TEST(Decentralized, AllocatorAdapterMatchesRuntime) {
  ScenarioConfig cfg;
  cfg.num_ues = 120;
  const Scenario s = generate_scenario(cfg, 19);
  const DecentralizedDmraAllocator adapter;
  EXPECT_EQ(adapter.allocate(s), run_decentralized_dmra(s).dmra.allocation);
  EXPECT_EQ(adapter.name(), "DMRA-decentralized");
}

}  // namespace
}  // namespace dmra
