#include <gtest/gtest.h>

#include <algorithm>

#include "../test_util.hpp"
#include "baselines/dcsp.hpp"
#include "baselines/greedy.hpp"
#include "baselines/nonco.hpp"
#include "baselines/random_alloc.hpp"
#include "core/dmra_allocator.hpp"
#include "mec/resources.hpp"
#include "sim/feasibility.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

// Every allocator must produce a feasible allocation on every scenario.
class AllAllocatorsFeasible : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AllAllocatorsFeasible, ConstraintsHold) {
  const auto [ues, seed] = GetParam();
  ScenarioConfig cfg;
  cfg.num_ues = static_cast<std::size_t>(ues);
  const Scenario s = generate_scenario(cfg, static_cast<std::uint64_t>(seed));

  std::vector<AllocatorPtr> algos;
  algos.push_back(std::make_unique<DmraAllocator>());
  algos.push_back(std::make_unique<DcspAllocator>());
  algos.push_back(std::make_unique<NonCoAllocator>());
  algos.push_back(std::make_unique<GreedyProfitAllocator>());
  algos.push_back(std::make_unique<RandomAllocator>(99));

  for (const auto& algo : algos) {
    const Allocation a = algo->allocate(s);
    const FeasibilityReport report = check_feasibility(s, a);
    EXPECT_TRUE(report.ok) << algo->name() << ": "
                           << (report.violations.empty() ? "" : report.violations.front());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllAllocatorsFeasible,
                         ::testing::Combine(::testing::Values(100, 600, 1200),
                                            ::testing::Values(1, 2)));

TEST(NonCo, ServesOnlyAtMaxSinrCandidate) {
  ScenarioConfig cfg;
  cfg.num_ues = 300;
  const Scenario s = generate_scenario(cfg, 3);
  const Allocation a = NonCoAllocator().allocate(s);
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    const auto bs = a.bs_of(u);
    if (!bs) continue;
    for (BsId i : s.candidates(u))
      EXPECT_LE(s.link(u, i).sinr, s.link(u, *bs).sinr)
          << "NonCo must never serve a UE away from its best-SINR candidate";
  }
}

TEST(NonCo, OneShotStrandsLosersWhileOtherBssHaveRoom) {
  // The defining non-collaborative weakness: a UE rejected by its max-SINR
  // BS goes straight to the cloud even when another covering BS could
  // still serve it. DMRA never leaves such a UE behind (its B_u only
  // empties on exhaustion), so the stranding count is NonCo-specific.
  ScenarioConfig cfg;
  cfg.num_ues = 1200;
  const Scenario s = generate_scenario(cfg, 5);

  auto stranded_with_room = [&](const Allocation& a) {
    ResourceState state(s);
    for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
      const UeId u{static_cast<std::uint32_t>(ui)};
      if (const auto bs = a.bs_of(u)) state.commit(u, *bs, s.candidate_rrbs(u, *bs));
    }
    std::size_t stranded = 0;
    for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
      const UeId u{static_cast<std::uint32_t>(ui)};
      if (!a.is_cloud(u)) continue;
      for (BsId i : s.candidates(u)) {
        if (state.can_serve(u, i)) {
          ++stranded;
          break;
        }
      }
    }
    return stranded;
  };

  EXPECT_GT(stranded_with_room(NonCoAllocator().allocate(s)), 0u);
  EXPECT_EQ(stranded_with_room(DmraAllocator().allocate(s)), 0u);
}

TEST(NonCo, LosesToDmraOnProfitDespiteServingEfficiently) {
  // NonCo's max-SINR / min-RRB policy is radio-efficient and can serve
  // more UEs than DMRA, yet it monetizes them worse: cross-SP, SP-blind.
  ScenarioConfig cfg;
  cfg.num_ues = 1200;
  const Scenario s = generate_scenario(cfg, 5);
  const Allocation nonco = NonCoAllocator().allocate(s);
  const Allocation dmra = DmraAllocator().allocate(s);
  EXPECT_GT(total_profit(s, dmra), total_profit(s, nonco));
}

TEST(Dcsp, IgnoresSpOwnership) {
  // DCSP's decisions never look at SPs: permuting UE subscriptions must
  // not change the allocation.
  ScenarioConfig cfg;
  cfg.num_ues = 200;
  const Scenario s1 = generate_scenario(cfg, 7);
  // Same deployment with every UE's subscription rotated to the next SP.
  const Scenario s2_base = generate_scenario(cfg, 7);
  ScenarioData rebuilt;
  rebuilt.num_services = s2_base.num_services();
  rebuilt.sps.assign(s2_base.sps().begin(), s2_base.sps().end());
  rebuilt.bss.assign(s2_base.bss().begin(), s2_base.bss().end());
  rebuilt.ues.assign(s2_base.ues().begin(), s2_base.ues().end());
  for (auto& ue : rebuilt.ues)
    ue.sp = SpId{static_cast<std::uint32_t>((ue.sp.value + 1) % s2_base.num_sps())};
  rebuilt.channel = s2_base.channel();
  rebuilt.ofdma = s2_base.ofdma();
  rebuilt.pricing = s2_base.pricing();
  rebuilt.coverage_radius_m = s2_base.coverage_radius_m();
  const Scenario s2(std::move(rebuilt));

  EXPECT_EQ(DcspAllocator().allocate(s1), DcspAllocator().allocate(s2));
}

TEST(Dcsp, EqualOccupancyTieBreaksTowardLowerIdThenSpills) {
  // Every BS starts at relative occupancy 0, so the first wave lands on
  // the lowest id; once a BS can no longer serve, later UEs spill over.
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, /*cru=*/4);   // one 4-CRU slot
  ms.add_bs(sp, {10, 0}, /*cru=*/100);
  ms.add_ue(sp, {5, 0}, ServiceId{0}, 4);
  ms.add_ue(sp, {5, 1}, ServiceId{0}, 4);
  const Scenario s = ms.build();
  const Allocation a = DcspAllocator().allocate(s);
  EXPECT_EQ(a.bs_of(UeId{0}), (BsId{0}));
  EXPECT_EQ(a.bs_of(UeId{1}), (BsId{1}));
}

TEST(Dcsp, PrefersTheLessOccupiedBsAcrossRounds) {
  // BS 0 fills up in round one; a later UE whose request arrives after the
  // first wave sees BS 0 at higher occupancy and picks BS 1 even though
  // BS 0 could still serve it.
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, /*cru=*/12);
  ms.add_bs(sp, {10, 0}, /*cru=*/12);
  // Three UEs on service 0: round 1 sends all to BS 0 (tie), which admits
  // them while resources last (12 CRUs = three 4-CRU tasks fit).
  ms.add_ue(sp, {5, 0}, ServiceId{0}, 4);
  ms.add_ue(sp, {5, 1}, ServiceId{0}, 4);
  ms.add_ue(sp, {5, 2}, ServiceId{0}, 4);
  // A service-1 UE also lands in the same wave; afterwards BS 0 carries
  // strictly more load than BS 1 for any later arrival.
  ms.add_ue(sp, {5, 3}, ServiceId{1}, 4);
  const Scenario s = ms.build();
  const Allocation a = DcspAllocator().allocate(s);
  // All four served somewhere, constraints hold.
  EXPECT_EQ(a.num_served(), 4u);
  EXPECT_TRUE(check_feasibility(s, a).ok);
}

TEST(Greedy, TakesTheMostProfitablePairFirst) {
  test::MiniScenario ms;
  const SpId sp0 = ms.add_sp();
  const SpId sp1 = ms.add_sp();
  ms.add_bs(sp0, {0, 0}, /*cru=*/4);
  ms.add_ue(sp0, {10, 0}, ServiceId{0}, 4);   // same SP, near → best margin
  ms.add_ue(sp1, {10, 5}, ServiceId{0}, 4);   // cross SP → worse margin
  const Scenario s = ms.build();
  const Allocation a = GreedyProfitAllocator().allocate(s);
  EXPECT_EQ(a.bs_of(UeId{0}), (BsId{0}));
  EXPECT_TRUE(a.is_cloud(UeId{1}));
}

TEST(Greedy, NeverWorseThanRandomOnDefaults) {
  ScenarioConfig cfg;
  cfg.num_ues = 500;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Scenario s = generate_scenario(cfg, seed);
    const double greedy = total_profit(s, GreedyProfitAllocator().allocate(s));
    const double random = total_profit(s, RandomAllocator(seed).allocate(s));
    EXPECT_GE(greedy, random);
  }
}

TEST(Random, DeterministicPerSeedAndSeedSensitive) {
  ScenarioConfig cfg;
  cfg.num_ues = 200;
  const Scenario s = generate_scenario(cfg, 9);
  EXPECT_EQ(RandomAllocator(5).allocate(s), RandomAllocator(5).allocate(s));
  EXPECT_NE(RandomAllocator(5).allocate(s), RandomAllocator(6).allocate(s));
}

TEST(NonCoIterative, NeverStrandsWithRoomLeft) {
  ScenarioConfig cfg;
  cfg.num_ues = 1000;
  const Scenario s = generate_scenario(cfg, 5);
  const Allocation a = NonCoAllocator(NonCoAllocator::Mode::kIterative).allocate(s);
  ResourceState state(s);
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    if (const auto bs = a.bs_of(u)) state.commit(u, *bs, s.candidate_rrbs(u, *bs));
  }
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    if (!a.is_cloud(u)) continue;
    for (BsId i : s.candidates(u)) EXPECT_FALSE(state.can_serve(u, i));
  }
}

TEST(NonCoIterative, ServesAtLeastAsManyAsOneShot) {
  ScenarioConfig cfg;
  cfg.num_ues = 1000;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Scenario s = generate_scenario(cfg, seed);
    EXPECT_GE(NonCoAllocator(NonCoAllocator::Mode::kIterative).allocate(s).num_served(),
              NonCoAllocator().allocate(s).num_served());
  }
}

TEST(NonCoIterative, FeasibleAndFallsBackDownTheSinrList) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, /*cru=*/4);   // best SINR for both UEs, one slot
  ms.add_bs(sp, {60, 0});
  ms.add_ue(sp, {10, 0}, ServiceId{0}, 4);
  ms.add_ue(sp, {12, 0}, ServiceId{0}, 4);
  const Scenario s = ms.build();
  const Allocation one_shot = NonCoAllocator().allocate(s);
  const Allocation iter = NonCoAllocator(NonCoAllocator::Mode::kIterative).allocate(s);
  // One-shot: the loser of BS 0 goes to the cloud despite BS 1's room.
  EXPECT_EQ(one_shot.num_served(), 1u);
  // Iterative: the loser retries and lands on BS 1.
  EXPECT_EQ(iter.num_served(), 2u);
  EXPECT_TRUE(check_feasibility(s, iter).ok);
}

TEST(Names, AreStable) {
  EXPECT_EQ(DmraAllocator().name(), "DMRA");
  EXPECT_EQ(DcspAllocator().name(), "DCSP");
  EXPECT_EQ(NonCoAllocator().name(), "NonCo");
  EXPECT_EQ(NonCoAllocator(NonCoAllocator::Mode::kIterative).name(), "NonCo-iter");
  EXPECT_EQ(GreedyProfitAllocator().name(), "Greedy");
  EXPECT_EQ(RandomAllocator(1).name(), "Random");
}

}  // namespace
}  // namespace dmra
