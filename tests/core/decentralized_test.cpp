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
  // Under faults every live BS publishes once in the bootstrap and once in
  // every round's BS phase (one per matching round; the loop ends in a UE
  // phase). BS 2 is down for the BS phases of rounds 2 to 5.
  ASSERT_GE(faulted.dmra.rounds, 6u);
  EXPECT_EQ(faulted.messages.publications, s.num_bss() * (1 + faulted.dmra.rounds) - 4);
  // A lost read is not a reception.
  EXPECT_GT(faulted.bus.reads_dropped, 0u);
  EXPECT_GT(faulted.bus.reads_delayed, 0u);

  const ShardedResult sharded = run_sharded_dmra(s, {}, {.num_shards = 3});
  EXPECT_EQ(sharded.messages.total(), sharded.bus.messages_sent);
}

TEST(Decentralized, SettledUeHearsNoFurtherLevels) {
  // One BS and four UEs of one SP, every UE close enough to fit. Three
  // share service 0, so bs_select admits one of them per round; the
  // service-1 UE is admitted in round 0 beside the first of them. The BS
  // publishes its levels once in the bootstrap and once in each round with
  // proposals, and a UE reads the channel only while it is still seeking:
  // a UE accepted in round r hears no levels from round r + 1 on.
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
  EXPECT_EQ(m.requests_ue_sp, 7u);
  EXPECT_EQ(m.proposals_sp_bs, 7u);
  EXPECT_EQ(m.decisions_bs_sp, 7u);
  EXPECT_EQ(m.decisions_sp_ue, 7u);
  EXPECT_EQ(m.publications, 1u + 3u);  // the bootstrap, then one per round with proposals
  // Round 0 reads the bootstrap with 4 seeking, round 1 the round-0
  // publication with 2, round 2 the round-1 one with 1; the UE accepted in
  // round 2 hears the round-2 publication no more. Delivering every
  // publication to the whole audience would make this 16.
  EXPECT_EQ(m.receptions, 4u + 2u + 1u);
  EXPECT_EQ(m.total(), 4u * 7u + 4u);
  EXPECT_EQ(r.bus.messages_sent, 32u);

  // The same split per round: proposals, relays and decisions at four
  // messages per proposer, then one publication; the bootstrap's
  // publication precedes round 0.
  const auto rows = rec.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].messages, 4u * 4u + 1u);
  EXPECT_EQ(rows[1].messages, 2u * 4u + 1u);
  EXPECT_EQ(rows[2].messages, 1u * 4u + 1u);
  EXPECT_EQ(rows[0].receptions, 4u);
  EXPECT_EQ(rows[1].receptions, 2u);
  EXPECT_EQ(rows[2].receptions, 1u);
  EXPECT_EQ(rec.metrics().counter("msg.receptions"), 7u);
  EXPECT_EQ(rec.metrics().counter("msg.publications"), 4u);
}

TEST(Decentralized, UesReadOnlyTheChannelsTheyNeedUnderAnOutagePlan) {
  // Two BSs that each fit one service-0 UE and cover all three UEs, and a
  // third BS out of everyone's range whose crash in round 1 arms crash
  // recovery; no link faults. Every live BS publishes every round. u0 and
  // u1 sit near BS 0 and propose there, u2 near BS 1. BS 0 admits one of
  // its two proposers, BS 1 admits u2, so in round 1 the rejected UE finds
  // both candidates full and falls back to the cloud. After that nobody
  // proposes, and the run ends on the sixth quiet round (round 6; crash
  // recovery keeps kSuspectAfter + 2 = 5 quiet rounds of grace).
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0.0, 0.0}, 4);
  ms.add_bs(sp, {400.0, 0.0}, 4);
  const BsId far = ms.add_bs(sp, {3000.0, 0.0});
  for (const double x : {100.0, 150.0, 350.0}) ms.add_ue(sp, {x, 0.0}, ServiceId{0});
  const Scenario s = ms.build();
  for (std::uint32_t u = 0; u < 3; ++u) ASSERT_EQ(s.candidates(UeId{u}).size(), 2u);

  FaultPlan plan;
  plan.outages.push_back({.bs = far, .crash_round = 1, .recover_round = kNeverRecovers});
  obs::TraceRecorder rec;
  DecentralizedResult r;
  {
    obs::ScopedTraceRecorder install(&rec);
    r = run_decentralized_dmra(s, {}, {.seed = 1, .faults = &plan});
  }
  EXPECT_EQ(r.dmra.allocation.num_served(), 2u);
  EXPECT_EQ(r.dmra.proposals_sent, 3u);
  EXPECT_EQ(r.recovery.suspected_serving_bs, 0u);
  EXPECT_EQ(r.bus.reads_dropped, 0u);  // no link faults, no read draws
  ASSERT_EQ(r.dmra.rounds, 6u);

  const auto rows = rec.rows();
  ASSERT_EQ(rows.size(), 6u);
  // Round 0: all three seek and hear both candidates' bootstrap.
  EXPECT_EQ(rows[0].receptions, 3u * 2u);
  // Round 1: the two matched UEs hear only their serving BS; the rejected
  // UE, still seeking, hears both candidates (and then goes to the cloud).
  EXPECT_EQ(rows[1].receptions, 2u * 1u + 1u * 2u);
  // Rounds 2-5: the matched UEs hear their serving BS, the cloud UE nothing.
  for (std::size_t k = 2; k < rows.size(); ++k) EXPECT_EQ(rows[k].receptions, 2u) << k;
  // Round 6, the last quiet round, reads too but closes no row.
  EXPECT_EQ(r.messages.receptions, 6u + 4u + 4u * 2u + 2u);
  // Bootstrap 3, round 0's BS phase 3, then the two live BSs in rounds 1-5.
  EXPECT_EQ(r.messages.publications, 3u + 3u + 5u * 2u);
  EXPECT_EQ(r.messages.total(), r.bus.messages_sent);
}

TEST(Decentralized, EquivalentOnTheDenseDeployment) {
  // The benchmark's deployment (100 BSs in a 3000 m arena) at 4000 UEs,
  // about 1.1x what the MEC layer can serve: many rounds, and many UEs
  // settled long before the last broadcast. Also with three services per
  // BS, where a covered UE that cannot be served there is no candidate and
  // never reads the BS's channel.
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
    EXPECT_EQ(one.messages.publications, dec.messages.publications);
    EXPECT_EQ(one.messages.receptions, dec.messages.receptions);

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
