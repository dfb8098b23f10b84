#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.hpp"
#include "sim/feasibility.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

// ---- Incremental: serving moves one UE at a time ----------------------------

/// `base`'s deployment with one copy of its population per drift, copy k
/// shifted drifts[k] along x: slot k·|U| + i is UE i after drift k. A move
/// is served as sim/churn serves it: remove the old slot, admit the new one.
Scenario drifting_universe(const Scenario& base, const std::vector<double>& drifts) {
  ScenarioData data;
  data.num_services = base.num_services();
  data.sps.assign(base.sps().begin(), base.sps().end());
  data.bss.assign(base.bss().begin(), base.bss().end());
  for (const double dx : drifts) {
    for (UserEquipment ue : base.ues()) {
      ue.id = UeId{static_cast<std::uint32_t>(data.ues.size())};
      ue.position.x += dx;
      data.ues.push_back(ue);
    }
  }
  data.channel = base.channel();
  data.ofdma = base.ofdma();
  data.pricing = base.pricing();
  data.coverage_radius_m = base.coverage_radius_m();
  return Scenario(std::move(data));
}

UeId slot(std::size_t copy, std::size_t n, std::size_t i) {
  return UeId{static_cast<std::uint32_t>(copy * n + i)};
}

// Nothing departed, moved or recovered: the ledger only shrank since each
// cloud dweller was decided, so a readmit sweep places nobody and every
// decision stands.
TEST(Incremental, UnchangedScenarioKeepsEverything) {
  ScenarioConfig cfg;
  cfg.num_ues = 1600;  // the default deployment serves about 1000
  const Scenario s = generate_scenario(cfg, 7);
  IncrementalAllocator inc(s);
  for (std::uint32_t u = 0; u < s.num_ues(); ++u) inc.admit(UeId{u});
  std::size_t waiting = 0;
  for (std::uint32_t u = 0; u < s.num_ues(); ++u)
    if (inc.allocation().is_cloud(UeId{u}) && s.coverage_count(UeId{u}) > 0) ++waiting;
  ASSERT_GT(waiting, 0u);
  const Allocation before = inc.allocation();
  const double profit = inc.live_profit();
  std::size_t placed = 0;
  inc.readmit_waiting([&](UeId, BsId) { ++placed; });
  EXPECT_EQ(placed, 0u);
  EXPECT_EQ(inc.allocation(), before);
  EXPECT_EQ(inc.live_profit(), profit);
}

// With rho = 0 a UE's preference is its price alone, so while its
// cheapest candidate has room it proposes there in every round until
// accepted (a rejected UE re-proposes, Alg. 1's literal reading). On a
// deployment with room for everyone, plain DMRA therefore ends with each
// UE at its cheapest candidate, as does admitting the UEs one at a time
// into an empty ledger.
TEST(Incremental, StartingFromScratchEqualsPlainDmra) {
  ScenarioConfig cfg;
  cfg.num_ues = 250;  // the default deployment serves about 1000
  const Scenario s = generate_scenario(cfg, 9);
  IncrementalConfig config;
  config.dmra.rho = 0.0;
  IncrementalAllocator inc(s, config);
  for (std::uint32_t u = 0; u < s.num_ues(); ++u) inc.admit(UeId{u});
  const DmraResult plain = solve_dmra(s, config.dmra);
  EXPECT_GT(plain.rejections, 0u);  // not decided in one round
  EXPECT_EQ(plain.allocation.num_served(), s.num_ues());
  EXPECT_EQ(inc.allocation(), plain.allocation);
}

// A UE that walked out of its BS's coverage is re-matched on arrival at
// its new slot.
TEST(Incremental, InvalidatedAssignmentsAreRematched) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_bs(sp, {400, 0});
  ms.add_ue(sp, {100, 0}, ServiceId{0});  // slot 0: before the walk
  ms.add_ue(sp, {550, 0}, ServiceId{0});  // slot 1: after it, d0 = 550, d1 = 150
  const Scenario s = ms.build();
  ASSERT_EQ(s.coverage_count(UeId{1}), 1u);  // BS 0 covers 500 m
  IncrementalAllocator inc(s);
  EXPECT_EQ(inc.admit(UeId{0}), (BsId{0}));
  inc.remove(UeId{0});
  EXPECT_EQ(inc.admit(UeId{1}), (BsId{1}));
  EXPECT_TRUE(inc.allocation().is_cloud(UeId{0}));
  EXPECT_NEAR(inc.live_profit(), total_profit(s, inc.allocation()), 1e-9);
}

// Five rounds of moves, everyone drifting 25 m per round: every
// intermediate allocation is feasible and the live profit tracks Eq. 11.
TEST(Incremental, FeasibleAcrossManySteps) {
  ScenarioConfig cfg;
  cfg.num_ues = 300;
  const Scenario base = generate_scenario(cfg, 13);
  const std::size_t n = base.num_ues();
  const Scenario s = drifting_universe(base, {0.0, 25.0, 50.0, 75.0, 100.0, 125.0});
  IncrementalAllocator inc(s);
  for (std::size_t i = 0; i < n; ++i) inc.admit(slot(0, n, i));
  for (std::size_t step = 1; step <= 5; ++step) {
    for (std::size_t i = 0; i < n; ++i) {
      inc.remove(slot(step - 1, n, i));
      inc.admit(slot(step, n, i));
    }
    const FeasibilityReport report = check_feasibility(s, inc.allocation());
    EXPECT_TRUE(report.ok) << "step " << step << ": "
                           << (report.violations.empty() ? "" : report.violations[0]);
    EXPECT_EQ(inc.num_active(), n);
    EXPECT_NEAR(inc.live_profit(), total_profit(s, inc.allocation()), 1e-6);
  }
}

// The slot universe is the scenario's population: an id beyond it is a
// caller bug, caught before it indexes the ledger.
TEST(Incremental, SizeMismatchIsContractViolation) {
  ScenarioConfig cfg;
  cfg.num_ues = 10;
  const Scenario s = generate_scenario(cfg, 1);
  IncrementalAllocator inc(s);
  EXPECT_THROW(inc.admit(UeId{10}), ContractViolation);
  EXPECT_THROW(inc.reattempt(UeId{10}), ContractViolation);
  EXPECT_THROW(inc.remove(UeId{10}), ContractViolation);
  EXPECT_EQ(inc.num_active(), 0u);
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
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    inc.admit(u);
    solve_dmra_partial(s, IncrementalConfig{}.dmra, state, ref, {&u, 1});  // u alone proposes
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

TEST(IncrementalAllocator, ActiveWalkCrashAndRecoverMatchFullScans) {
  // for_each_active lists what a scan of active() lists, ascending;
  // crash_bs, which walks it, orphans exactly the slots a scan of the
  // allocation finds on the BS, in that order; and recover_bs, which
  // recommits from it, leaves the BS where a recount over the whole
  // allocation puts it.
  ScenarioConfig cfg;
  cfg.num_ues = 1200;
  const Scenario s = generate_scenario(cfg, 7);
  IncrementalAllocator inc(s);
  Rng rng("active-walk", 7);
  std::size_t crashes = 0, recoveries = 0;
  for (std::size_t step = 0; step < 3000; ++step) {
    const std::size_t op = rng.index(100);
    const BsId i{static_cast<std::uint32_t>(rng.index(s.num_bss()))};
    if (op < 85) {
      const UeId u{static_cast<std::uint32_t>(rng.index(s.num_ues()))};
      if (inc.active(u))
        inc.remove(u);
      else
        inc.admit(u);
    } else if (op < 91) {
      std::vector<UeId> expected;
      for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
        const UeId u{static_cast<std::uint32_t>(ui)};
        if (const auto bs = inc.allocation().bs_of(u); bs && *bs == i) expected.push_back(u);
      }
      std::vector<UeId> orphans;
      EXPECT_EQ(inc.crash_bs(i, orphans), expected.size());
      ASSERT_EQ(orphans, expected) << "step " << step;
      crashes += expected.empty() ? 0 : 1;
    } else if (op < 95) {
      inc.degrade_bs(i, 0.5, 0.5);
    } else {
      inc.recover_bs(i);
      ResourceState recount(s);
      recount.recount_remaining(i, inc.allocation());
      ASSERT_EQ(inc.state().remaining_rrbs(i), recount.remaining_rrbs(i)) << "step " << step;
      for (std::size_t j = 0; j < s.num_services(); ++j) {
        const ServiceId sj{static_cast<std::uint32_t>(j)};
        ASSERT_EQ(inc.state().remaining_crus(i, sj), recount.remaining_crus(i, sj));
      }
      ++recoveries;
    }
    std::vector<UeId> walked, scanned;
    inc.for_each_active([&](UeId u) { walked.push_back(u); });
    for (std::size_t ui = 0; ui < s.num_ues(); ++ui)
      if (inc.active(UeId{static_cast<std::uint32_t>(ui)}))
        scanned.push_back(UeId{static_cast<std::uint32_t>(ui)});
    ASSERT_EQ(walked, scanned) << "step " << step;
    ASSERT_EQ(walked.size(), inc.num_active());
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(recoveries, 0u);
  EXPECT_NEAR(inc.live_profit(), total_profit(s, inc.allocation()), 1e-6);
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

/// An admission rule that answers the residual's first candidate with
/// room, so it refuses only a slot that fits nowhere: the built-in rule's
/// refusals, with every decision visible to the test. Each slot it is asked
/// about is appended to `asked` (the residual keeps the slot's position).
class FirstFitRule : public Allocator {
 public:
  explicit FirstFitRule(std::vector<Point>* asked = nullptr) : asked_(asked) {}
  std::string name() const override { return "first-fit"; }
  Allocation allocate(const Scenario& residual) const override {
    Allocation answer(residual.num_ues());
    const UeId u{0};
    const UserEquipment& e = residual.ue(u);
    if (asked_ != nullptr) asked_->push_back(e.position);
    const auto cands = residual.candidates(u);
    const auto rrbs = residual.candidate_rrbs(u);
    for (std::size_t k = 0; k < cands.size(); ++k) {
      const BaseStation& b = residual.bs(cands[k]);
      if (b.cru_capacity[e.service.idx()] >= e.cru_demand && b.num_rrbs >= rrbs[k]) {
        answer.assign(u, cands[k]);
        break;
      }
    }
    return answer;
  }

 private:
  std::vector<Point>* asked_;
};

/// FirstFitRule, except that it answers cloud whenever the residual's
/// remaining RRBs sum to an odd number: a pure function of the residual
/// that refuses slots that fit, and flips with commits on BSs the slot
/// does not list.
class ParityRefusingRule final : public FirstFitRule {
 public:
  std::string name() const override { return "parity-refusing"; }
  Allocation allocate(const Scenario& residual) const override {
    std::uint64_t rrbs = 0;
    for (const BaseStation& b : residual.bss()) rrbs += b.num_rrbs;
    if (rrbs % 2 == 1) return Allocation(residual.num_ues());
    return FirstFitRule::allocate(residual);
  }
};

struct StreamCounts {
  std::size_t readmitted = 0;
  std::size_t evicted = 0;
  std::size_t clamped_removes = 0;
};

// Two allocators take one seeded lifecycle stream; one readmits with the
// merge over the raised BSs' waiting lists, the other with the full scan.
// Every decision, ledger and profit bit must agree after every op. The
// default deployment serves about 1000 UEs, so with `admitted` slots of
// 2400 active from the start cloud dwellers exist for the passes to place.
StreamCounts expect_walk_equals_scan(const Scenario& s, IncrementalConfig config,
                                     std::uint64_t seed, std::size_t admitted,
                                     std::size_t steps) {
  const std::size_t n = s.num_ues();
  IncrementalAllocator walk(s, config);
  IncrementalAllocator scan(s, config);
  std::vector<bool> clamped(s.num_bss(), false);
  Rng rng("readmit-walk-contract", seed);
  StreamCounts counts;

  const auto waiting = [&](UeId u) {
    return scan.active(u) && scan.allocation().is_cloud(u) && s.coverage_count(u) > 0;
  };
  const auto both = [&](auto&& op) {
    op(walk);
    op(scan);
  };
  const auto readmit = [&](std::size_t step) {
    const Placements a = walk_readmit(walk);
    const Placements b = brute_force_readmit(scan);
    EXPECT_EQ(a, b) << "readmit pass at step " << step;
    counts.readmitted += a.size();
  };
  const auto crash = [&](BsId i) {
    std::vector<UeId> orphans_walk, orphans_scan;
    counts.evicted += walk.crash_bs(i, orphans_walk);
    scan.crash_bs(i, orphans_scan);
    EXPECT_EQ(orphans_walk, orphans_scan);
    clamped[i.idx()] = true;
  };

  for (std::size_t ui = 0; ui < admitted; ++ui)
    both([&](IncrementalAllocator& inc) { inc.admit(UeId{static_cast<std::uint32_t>(ui)}); });
  for (std::size_t step = 0; step < steps; ++step) {
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
        ++counts.clamped_removes;
      }
    } else if (op < 60) {  // crash alone, swept right after, or between sweeps
      const BsId i{static_cast<std::uint32_t>(rng.index(s.num_bss()))};
      const std::size_t form = rng.index(3);
      // Back to back, the second sweep has only the crash's raises to go
      // on: the orphans' candidates.
      if (form == 2) readmit(step);
      crash(i);
      if (form >= 1) readmit(step);
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
    EXPECT_TRUE(same_state(walk, scan)) << "after op " << op << " at step " << step;
    if (testing::Test::HasFailure()) return counts;
  }
  // The stream ends where it exercised what it pins.
  EXPECT_GT(scan.num_active() - scan.allocation().num_served(), 0u);
  EXPECT_NEAR(walk.live_profit(), total_profit(s, walk.allocation()), 1e-6);
  return counts;
}

TEST(IncrementalAllocator, ReadmitWalkEqualsFullScanOverLifecycleStream) {
  ScenarioConfig cfg;
  cfg.num_ues = 2400;
  for (const std::uint64_t seed : {3ull, 5ull, 8ull, 13ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const StreamCounts c =
        expect_walk_equals_scan(generate_scenario(cfg, seed), {}, seed, 1600, 2500);
    EXPECT_GT(c.readmitted, 0u);
    EXPECT_GT(c.evicted, 0u);
    EXPECT_GT(c.clamped_removes, 0u);
  }
  // Starting at 600 active, the stream fills the deployment slowly, and
  // crash orphans find room on their other candidates while no waiting
  // slot does.
  for (const std::uint64_t seed : {3ull, 5ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed) + ", filling up");
    const StreamCounts c =
        expect_walk_equals_scan(generate_scenario(cfg, seed), {}, seed, 600, 1500);
    EXPECT_GT(c.readmitted, 0u);
    EXPECT_GT(c.evicted, 0u);
  }
}

// A rule may refuse a slot that fits and accept it once the residual has
// changed anywhere: the merge must retry it at the next sweep, as the full
// scan does, on the BSs the refusal raised.
TEST(IncrementalAllocator, ReadmitWalkEqualsFullScanUnderARefusingRule) {
  ScenarioConfig cfg;
  cfg.num_ues = 1200;
  const ParityRefusingRule rule;
  IncrementalConfig config;
  config.rule = &rule;
  const StreamCounts c = expect_walk_equals_scan(generate_scenario(cfg, 3), config, 3, 900, 250);
  EXPECT_GT(c.readmitted, 0u);
  EXPECT_GT(c.evicted, 0u);
}

// The merge asks a rule only about the slots a raised BS can carry: after a
// sweep, nothing; after one departure from BS i, only the waiting slots
// that list i and fit it.
TEST(IncrementalAllocator, ReadmitAsksTheRuleOnlyWhatARaisedBsCanCarry) {
  ScenarioConfig cfg;
  cfg.num_ues = 1600;  // the default deployment serves about 1000
  const Scenario s = generate_scenario(cfg, 11);
  std::vector<Point> asked;
  const FirstFitRule rule(&asked);
  IncrementalConfig config;
  config.rule = &rule;
  IncrementalAllocator inc(s, config);
  for (std::uint32_t u = 0; u < s.num_ues(); ++u) inc.admit(UeId{u});
  // Free some room, so the first sweep has work.
  for (std::uint32_t u = 0; u < s.num_ues(); u += 40)
    if (inc.allocation().bs_of(UeId{u})) inc.remove(UeId{u});
  std::size_t placed = 0;
  inc.readmit_waiting([&](UeId, BsId) { ++placed; });
  EXPECT_GT(placed, 0u);

  asked.clear();
  inc.readmit_waiting([&](UeId, BsId) { ++placed; });
  EXPECT_TRUE(asked.empty()) << asked.size() << " slots asked right after a sweep";

  // The first served slot whose departure lets some waiting slot fit its BS.
  const auto slot_at = [&](Point p) {
    for (const UserEquipment& e : s.ues())
      if (e.position.x == p.x && e.position.y == p.y) return e.id;
    return UeId{static_cast<std::uint32_t>(s.num_ues())};
  };
  for (std::uint32_t v = 0; v < s.num_ues(); ++v) {
    const auto i = inc.allocation().bs_of(UeId{v});
    if (!i) continue;
    const UserEquipment& gone = s.ue(UeId{v});
    std::vector<std::uint32_t> fit;  // waiting slots that list i and fit it once v leaves
    for (std::uint32_t u = 0; u < s.num_ues(); ++u) {
      const UeId w{u};
      if (!inc.active(w) || !inc.allocation().is_cloud(w)) continue;
      const std::uint32_t n = s.candidate_rrbs(w, *i);
      const UserEquipment& e = s.ue(w);
      const std::uint32_t crus = inc.state().remaining_crus(*i, e.service) +
                                 (gone.service == e.service ? gone.cru_demand : 0);
      const std::uint32_t rrbs = inc.state().remaining_rrbs(*i) + s.candidate_rrbs(UeId{v}, *i);
      if (n != 0 && n <= rrbs && e.cru_demand <= crus) fit.push_back(u);
    }
    if (fit.empty()) continue;
    inc.remove(UeId{v});
    asked.clear();
    placed = 0;
    inc.readmit_waiting([&](UeId, BsId) { ++placed; });
    ASSERT_FALSE(asked.empty());
    EXPECT_EQ(slot_at(asked.front()).value, fit.front());
    for (const Point& p : asked) {
      const std::uint32_t u = slot_at(p).value;
      EXPECT_TRUE(std::find(fit.begin(), fit.end(), u) != fit.end()) << "asked slot " << u;
    }
    EXPECT_EQ(placed, asked.size());  // a rule that refuses only what fits nowhere
    return;
  }
  FAIL() << "no departure lets a waiting slot fit";
}

}  // namespace
}  // namespace dmra
