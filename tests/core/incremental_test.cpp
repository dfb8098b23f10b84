#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.hpp"
#include "core/dmra_allocator.hpp"
#include "mobility/handover.hpp"
#include "sim/feasibility.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

Scenario moved_copy(const Scenario& base, double dx) {
  ScenarioData data;
  data.num_services = base.num_services();
  data.sps.assign(base.sps().begin(), base.sps().end());
  data.bss.assign(base.bss().begin(), base.bss().end());
  data.ues.assign(base.ues().begin(), base.ues().end());
  for (auto& ue : data.ues) ue.position.x += dx;
  data.channel = base.channel();
  data.ofdma = base.ofdma();
  data.pricing = base.pricing();
  data.coverage_radius_m = base.coverage_radius_m();
  return Scenario(std::move(data));
}

TEST(Incremental, UnchangedScenarioKeepsEverything) {
  ScenarioConfig cfg;
  cfg.num_ues = 300;
  const Scenario s = generate_scenario(cfg, 7);
  const Allocation previous = DmraAllocator().allocate(s);
  const IncrementalResult r = solve_incremental_dmra(s, previous);
  EXPECT_EQ(r.allocation, previous);
  EXPECT_EQ(r.kept, previous.num_served());
  EXPECT_EQ(r.invalidated, 0u);
  EXPECT_EQ(r.released, 0u);
}

TEST(Incremental, StartingFromScratchEqualsPlainDmra) {
  ScenarioConfig cfg;
  cfg.num_ues = 250;
  const Scenario s = generate_scenario(cfg, 9);
  const IncrementalResult r = solve_incremental_dmra(s, Allocation(s.num_ues()));
  EXPECT_EQ(r.allocation, solve_dmra(s).allocation);
  EXPECT_EQ(r.kept, 0u);
}

TEST(Incremental, SmallMovesProduceFewerHandoversThanRerun) {
  ScenarioConfig cfg;
  cfg.num_ues = 500;
  const Scenario before = generate_scenario(cfg, 11);
  const Allocation prev = DmraAllocator().allocate(before);
  const Scenario after = moved_copy(before, 15.0);  // everyone drifts 15 m

  const Allocation rerun = DmraAllocator().allocate(after);
  const IncrementalResult inc = solve_incremental_dmra(after, prev);

  auto handovers = [&](const Allocation& now) {
    std::size_t n = 0;
    for (std::size_t ui = 0; ui < after.num_ues(); ++ui) {
      const UeId u{static_cast<std::uint32_t>(ui)};
      const auto a = prev.bs_of(u);
      const auto b = now.bs_of(u);
      if (a && b && *a != *b) ++n;
    }
    return n;
  };
  EXPECT_LT(handovers(inc.allocation), handovers(rerun));
  EXPECT_TRUE(check_feasibility(after, inc.allocation).ok);
  // Staying costs little profit relative to the full re-optimization.
  EXPECT_GT(total_profit(after, inc.allocation), 0.9 * total_profit(after, rerun));
}

TEST(Incremental, InvalidatedAssignmentsAreRematched) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_bs(sp, {400, 0});
  ms.add_ue(sp, {100, 0}, ServiceId{0});
  const Scenario before = ms.build();
  Allocation prev(1);
  prev.assign(UeId{0}, BsId{0});
  // The UE walks out of BS 0's coverage but stays in BS 1's.
  const Scenario after = moved_copy(before, 450.0);  // at x=550: d0=550, d1=150
  const IncrementalResult r = solve_incremental_dmra(after, prev);
  EXPECT_EQ(r.invalidated, 1u);
  EXPECT_EQ(r.allocation.bs_of(UeId{0}), (BsId{1}));
}

TEST(Incremental, HysteresisReleasesDriftedUes) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_bs(sp, {480, 0});
  ms.add_ue(sp, {40, 0}, ServiceId{0});
  const Scenario before = ms.build();
  Allocation prev(1);
  prev.assign(UeId{0}, BsId{0});
  // Drift close to BS 1: current price (d=400) far above best (d=80).
  const Scenario after = moved_copy(before, 360.0);

  // Without hysteresis (default): sticky.
  const IncrementalResult sticky = solve_incremental_dmra(after, prev);
  EXPECT_EQ(sticky.allocation.bs_of(UeId{0}), (BsId{0}));

  // With a modest margin the drift exceeds it → switch.
  IncrementalConfig cfg;
  cfg.hysteresis_margin = 0.5;  // price gap is σ·Δd·b = 0.003·360 ≈ 1.08
  const IncrementalResult agile = solve_incremental_dmra(after, prev, cfg);
  EXPECT_EQ(agile.released, 1u);
  EXPECT_EQ(agile.allocation.bs_of(UeId{0}), (BsId{1}));
}

TEST(Incremental, FeasibleAcrossManySteps) {
  ScenarioConfig cfg;
  cfg.num_ues = 300;
  Scenario scenario = generate_scenario(cfg, 13);
  Allocation alloc = DmraAllocator().allocate(scenario);
  for (int step = 1; step <= 5; ++step) {
    scenario = moved_copy(scenario, 25.0);
    const IncrementalResult r = solve_incremental_dmra(scenario, alloc);
    const FeasibilityReport report = check_feasibility(scenario, r.allocation);
    EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
    alloc = r.allocation;
  }
}

TEST(Incremental, HandoverStudyPolicyReducesChurn) {
  HandoverConfig cfg;
  cfg.scenario.num_ues = 300;
  cfg.mobility = MobilityKind::kRandomWaypoint;
  cfg.waypoint.speed_min_mps = 8.0;
  cfg.waypoint.speed_max_mps = 16.0;
  cfg.steps = 6;
  cfg.step_duration_s = 2.0;
  cfg.seed = 3;

  const DmraAllocator algo;
  const HandoverResult rerun = run_handover_study(cfg, algo);
  cfg.policy = ReallocationPolicy::kIncremental;
  const HandoverResult incremental = run_handover_study(cfg, algo);

  EXPECT_LT(incremental.handover_rate, rerun.handover_rate);
  EXPECT_GT(incremental.mean_profit, 0.85 * rerun.mean_profit);
}

TEST(Incremental, SizeMismatchIsContractViolation) {
  ScenarioConfig cfg;
  cfg.num_ues = 10;
  const Scenario s = generate_scenario(cfg, 1);
  EXPECT_THROW(solve_incremental_dmra(s, Allocation(9)), ContractViolation);
}

// ---- IncrementalAllocator: the persistent admit/remove surface -------------

// The header's claim: admit() (single-proposer Alg. 1) decides exactly
// what solve_dmra_partial computes for one unmatched UE against the same
// ledger. Run both side by side, one admission at a time.
TEST(IncrementalAllocator, AdmitMatchesSolveDmraPartialSingleProposer) {
  ScenarioConfig cfg;
  cfg.num_ues = 150;
  const Scenario s = generate_scenario(cfg, 21);

  IncrementalAllocator inc(s);
  ResourceState state(s);
  Allocation ref(s.num_ues());
  std::vector<bool> matched(s.num_ues(), true);
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    inc.admit(u);
    matched[ui] = false;
    solve_dmra_partial(s, IncrementalConfig{}.dmra, state, ref, matched);
    matched[ui] = true;  // cloud-forwarded UEs stay unmatched in the partial run
    ASSERT_EQ(inc.allocation().bs_of(u), ref.bs_of(u)) << "ue " << ui;
  }
  EXPECT_EQ(inc.allocation(), ref);
  EXPECT_NEAR(inc.live_profit(), total_profit(s, inc.allocation()), 1e-9);
}

TEST(IncrementalAllocator, RemoveReleasesEverything) {
  ScenarioConfig cfg;
  cfg.num_ues = 120;
  const Scenario s = generate_scenario(cfg, 23);
  IncrementalAllocator inc(s);
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui)
    inc.admit(UeId{static_cast<std::uint32_t>(ui)});
  EXPECT_EQ(inc.num_active(), s.num_ues());
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui)
    inc.remove(UeId{static_cast<std::uint32_t>(ui)});
  EXPECT_EQ(inc.num_active(), 0u);
  EXPECT_NEAR(inc.live_profit(), 0.0, 1e-9);
  // The ledger is back at nominal capacity for every (BS, service).
  const ResourceState fresh(s);
  for (const BaseStation& b : s.bss()) {
    EXPECT_EQ(inc.state().remaining_rrbs(b.id), fresh.remaining_rrbs(b.id));
    for (std::size_t j = 0; j < s.num_services(); ++j) {
      const ServiceId sj{static_cast<std::uint32_t>(j)};
      EXPECT_EQ(inc.state().remaining_crus(b.id, sj), fresh.remaining_crus(b.id, sj));
    }
  }
}

TEST(IncrementalAllocator, LifecycleContractsAreEnforced) {
  ScenarioConfig cfg;
  cfg.num_ues = 10;
  const Scenario s = generate_scenario(cfg, 1);
  IncrementalAllocator inc(s);
  EXPECT_THROW(inc.remove(UeId{0}), ContractViolation);     // not active
  EXPECT_THROW(inc.reattempt(UeId{0}), ContractViolation);  // not active
  inc.admit(UeId{0});
  EXPECT_THROW(inc.admit(UeId{0}), ContractViolation);  // already active
  if (inc.allocation().bs_of(UeId{0})) {
    EXPECT_THROW(inc.reattempt(UeId{0}), ContractViolation);  // served, not cloud
  }
  inc.remove(UeId{0});
  EXPECT_THROW(inc.remove(UeId{0}), ContractViolation);
}

TEST(IncrementalAllocator, CrashEvictsAndRecoverRestoresNominal) {
  ScenarioConfig cfg;
  cfg.num_ues = 200;
  const Scenario s = generate_scenario(cfg, 29);
  IncrementalAllocator inc(s);
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui)
    inc.admit(UeId{static_cast<std::uint32_t>(ui)});

  // Crash the busiest BS so the eviction set is non-empty.
  BsId victim{0};
  std::size_t best = 0;
  std::vector<std::size_t> load(s.bss().size(), 0);
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui)
    if (const auto b = inc.allocation().bs_of(UeId{static_cast<std::uint32_t>(ui)}))
      ++load[b->idx()];
  for (std::size_t bi = 0; bi < load.size(); ++bi)
    if (load[bi] > best) best = load[bi], victim = BsId{static_cast<std::uint32_t>(bi)};
  ASSERT_GT(best, 0u);

  std::vector<UeId> orphans;
  const std::size_t evicted = inc.crash_bs(victim, orphans);
  EXPECT_EQ(evicted, best);
  EXPECT_EQ(orphans.size(), best);
  EXPECT_FALSE(inc.capacity_nominal());
  for (const UeId u : orphans) {
    EXPECT_TRUE(inc.active(u));                     // evicted, not departed
    EXPECT_TRUE(inc.allocation().is_cloud(u));      // waiting at the cloud
  }
  for (std::size_t j = 0; j < s.num_services(); ++j)
    EXPECT_EQ(inc.state().remaining_crus(victim, ServiceId{static_cast<std::uint32_t>(j)}), 0u);
  EXPECT_EQ(inc.state().remaining_rrbs(victim), 0u);

  // Departing a UE during the outage must not leak capacity back into the
  // clamped BS (the orphan now lives at the cloud anyway).
  inc.remove(orphans[0]);

  inc.recover_bs(victim);
  EXPECT_TRUE(inc.capacity_nominal());
  // Recovered capacity is nominal minus live commitments (none here).
  const ResourceState fresh(s);
  EXPECT_EQ(inc.state().remaining_rrbs(victim), fresh.remaining_rrbs(victim));

  // Orphans re-placed via reattempt() land somewhere feasible again.
  std::size_t rehomed = 0;
  for (std::size_t k = 1; k < orphans.size(); ++k)
    if (inc.reattempt(orphans[k])) ++rehomed;
  EXPECT_GT(rehomed, 0u);
  EXPECT_TRUE(check_feasibility(s, inc.allocation()).ok);
  EXPECT_NEAR(inc.live_profit(), total_profit(s, inc.allocation()), 1e-9);
}

TEST(IncrementalAllocator, DegradeScalesRemainingAndRecoverRecounts) {
  ScenarioConfig cfg;
  cfg.num_ues = 100;
  const Scenario s = generate_scenario(cfg, 31);
  IncrementalAllocator inc(s);
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui)
    inc.admit(UeId{static_cast<std::uint32_t>(ui)});
  const BsId target{0};
  const std::uint32_t rrbs_before = inc.state().remaining_rrbs(target);
  inc.degrade_bs(target, 0.5, 0.5);
  EXPECT_FALSE(inc.capacity_nominal());
  EXPECT_LE(inc.state().remaining_rrbs(target), rrbs_before / 2 + 1);
  inc.recover_bs(target);
  EXPECT_TRUE(inc.capacity_nominal());
  // Post-recovery the ledger equals a from-scratch recount: remaining =
  // nominal − commitments of the UEs still assigned there.
  ResourceState recount(s);
  recount.recount_remaining(target, inc.allocation());
  EXPECT_EQ(inc.state().remaining_rrbs(target), recount.remaining_rrbs(target));
  for (std::size_t j = 0; j < s.num_services(); ++j) {
    const ServiceId sj{static_cast<std::uint32_t>(j)};
    EXPECT_EQ(inc.state().remaining_crus(target, sj), recount.remaining_crus(target, sj));
  }
}

// ---- readmit_waiting: the waiting-set walk against the full scan ----------

using Placements = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

// The readmit sweep the waiting-set walk replaced, kept as the reference:
// every slot of the universe ascending, active ∧ cloud ∧ candidates →
// reattempt.
Placements brute_force_readmit(IncrementalAllocator& inc) {
  Placements placed;
  const Scenario& s = inc.scenario();
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    if (!inc.active(u) || !inc.allocation().is_cloud(u)) continue;
    if (s.coverage_count(u) == 0) continue;
    if (const auto bs = inc.reattempt(u)) placed.emplace_back(u.value, bs->value);
  }
  return placed;
}

Placements walk_readmit(IncrementalAllocator& inc) {
  Placements placed;
  inc.readmit_waiting([&](UeId u, BsId bs) { placed.emplace_back(u.value, bs.value); });
  return placed;
}

testing::AssertionResult same_state(const IncrementalAllocator& a,
                                    const IncrementalAllocator& b) {
  if (a.num_active() != b.num_active()) return testing::AssertionFailure() << "active counts";
  if (!(a.allocation() == b.allocation())) return testing::AssertionFailure() << "allocations";
  if (a.live_profit() != b.live_profit()) return testing::AssertionFailure() << "live_profit";
  const Scenario& s = a.scenario();
  for (const BaseStation& bs : s.bss()) {
    if (a.state().remaining_rrbs(bs.id) != b.state().remaining_rrbs(bs.id))
      return testing::AssertionFailure() << "RRB ledger of BS " << bs.id.value;
    for (std::size_t j = 0; j < s.num_services(); ++j) {
      const ServiceId sj{static_cast<std::uint32_t>(j)};
      if (a.state().remaining_crus(bs.id, sj) != b.state().remaining_crus(bs.id, sj))
        return testing::AssertionFailure() << "CRU ledger of BS " << bs.id.value;
    }
  }
  return testing::AssertionSuccess();
}

// First slot at or after a random start (wrapping) that satisfies pred.
template <typename Pred>
std::optional<UeId> find_slot(Rng& rng, std::size_t n, Pred pred) {
  const std::size_t start = rng.index(n);
  for (std::size_t k = 0; k < n; ++k) {
    const UeId u{static_cast<std::uint32_t>((start + k) % n)};
    if (pred(u)) return u;
  }
  return std::nullopt;
}

// Two allocators take one seeded lifecycle stream; one readmits with the
// waiting-set walk, the other with the full scan. Every decision, ledger
// and profit bit must agree after every op. The default deployment serves
// about 1000 UEs and 1600 of the 2400 slots start active, so cloud
// dwellers exist for the passes to place.
TEST(IncrementalAllocator, ReadmitWalkEqualsFullScanOverLifecycleStream) {
  ScenarioConfig cfg;
  cfg.num_ues = 2400;
  for (const std::uint64_t seed : {3ull, 5ull, 8ull, 13ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario s = generate_scenario(cfg, seed);
    const std::size_t n = s.num_ues();
    IncrementalAllocator walk(s);
    IncrementalAllocator scan(s);
    std::vector<bool> clamped(s.num_bss(), false);
    Rng rng("readmit-walk-contract", seed);

    const auto waiting = [&](UeId u) {
      return scan.active(u) && scan.allocation().is_cloud(u) && s.coverage_count(u) > 0;
    };
    const auto both = [&](auto&& op) {
      op(walk);
      op(scan);
    };
    std::size_t readmitted = 0, evicted = 0, clamped_removes = 0;
    const auto readmit = [&](std::size_t step) {
      const Placements a = walk_readmit(walk);
      const Placements b = brute_force_readmit(scan);
      EXPECT_EQ(a, b) << "readmit pass at step " << step;
      readmitted += a.size();
    };

    for (std::size_t ui = 0; ui < 1600; ++ui)
      both([&](IncrementalAllocator& inc) { inc.admit(UeId{static_cast<std::uint32_t>(ui)}); });
    for (std::size_t step = 0; step < 2500; ++step) {
      const std::size_t op = rng.index(100);
      if (op < 40) {  // arrival or departure of a random slot
        const UeId u{static_cast<std::uint32_t>(rng.index(n))};
        if (scan.active(u))
          both([&](IncrementalAllocator& inc) { inc.remove(u); });
        else
          both([&](IncrementalAllocator& inc) { inc.admit(u); });
      } else if (op < 50) {  // departure of a waiting slot
        if (const auto u = find_slot(rng, n, waiting))
          both([&](IncrementalAllocator& inc) { inc.remove(*u); });
      } else if (op < 55) {  // departure from a clamped BS
        const auto u = find_slot(rng, n, [&](UeId v) {
          const auto bs = scan.allocation().bs_of(v);
          return bs && clamped[bs->idx()];
        });
        if (u) {
          both([&](IncrementalAllocator& inc) { inc.remove(*u); });
          ++clamped_removes;
        }
      } else if (op < 60) {  // crash, sometimes swept right after
        const BsId i{static_cast<std::uint32_t>(rng.index(s.num_bss()))};
        std::vector<UeId> orphans_walk, orphans_scan;
        evicted += walk.crash_bs(i, orphans_walk);
        scan.crash_bs(i, orphans_scan);
        EXPECT_EQ(orphans_walk, orphans_scan);
        clamped[i.idx()] = true;
        if (rng.bernoulli(0.5)) readmit(step);
      } else if (op < 64) {  // degradation
        const BsId i{static_cast<std::uint32_t>(rng.index(s.num_bss()))};
        both([&](IncrementalAllocator& inc) { inc.degrade_bs(i, 0.5, 0.5); });
        clamped[i.idx()] = true;
      } else if (op < 70) {  // recovery of a clamped BS
        const std::size_t start = rng.index(s.num_bss());
        for (std::size_t k = 0; k < s.num_bss(); ++k) {
          const BsId i{static_cast<std::uint32_t>((start + k) % s.num_bss())};
          if (!clamped[i.idx()]) continue;
          both([&](IncrementalAllocator& inc) { inc.recover_bs(i); });
          clamped[i.idx()] = false;
          break;
        }
      } else if (op < 80) {  // single retry, as the crash backlog drains
        if (const auto u = find_slot(rng, n, waiting)) {
          EXPECT_EQ(walk.reattempt(*u), scan.reattempt(*u)) << "step " << step;
        }
      } else {
        readmit(step);
      }
      ASSERT_TRUE(same_state(walk, scan)) << "after op " << op << " at step " << step;
    }
    // The stream exercised what it pins.
    EXPECT_GT(readmitted, 0u);
    EXPECT_GT(evicted, 0u);
    EXPECT_GT(clamped_removes, 0u);
    EXPECT_GT(scan.num_active() - scan.allocation().num_served(), 0u);
    EXPECT_NEAR(walk.live_profit(), total_profit(s, walk.allocation()), 1e-6);
  }
}

}  // namespace
}  // namespace dmra
