// Incremental DMRA re-allocation — the paper's "continuously adjust the
// resource allocation scheme" (§V/§VII) made operational.
//
// Full re-runs treat every step as a fresh problem and churn the
// association (bench abl7). Incremental re-allocation instead:
//   1. keeps every previous assignment that is still valid in the new
//      scenario (UE still covered, BS still able to carry it),
//   2. optionally releases kept UEs whose current BS has become much
//      worse than their best alternative (price gap > hysteresis margin),
//   3. runs the DMRA matching only over the displaced/new UEs against the
//      remaining capacity.
// Result: the same matching logic, a fraction of the handovers.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/solver.hpp"
#include "mec/allocation.hpp"
#include "mec/resources.hpp"

namespace dmra {

/// Tuning for the keep/release/re-match split.
struct IncrementalConfig {
  /// Matching parameters for the partial re-run (step 3). The same config
  /// shape the full solver and the decentralized runtime take, so sweeps
  /// can share one DmraConfig across all three entry points.
  DmraConfig dmra;
  /// A kept UE is released for re-matching only if its current price
  /// exceeds its best candidate's price by more than this margin (per
  /// CRU). infinity-like large values mean "never switch voluntarily";
  /// 0 re-evaluates everyone whose BS is no longer their best.
  double hysteresis_margin = 1e18;
};

/// Outcome of one incremental step, with the churn budget itemized:
/// kept + released + invalidated + (new UEs) partitions the population.
struct IncrementalResult {
  Allocation allocation{0};    ///< the full new allocation (every UE)
  std::size_t kept = 0;        ///< assignments carried over unchanged
  std::size_t released = 0;    ///< kept-capable but released by hysteresis
  std::size_t invalidated = 0; ///< previous assignments no longer feasible
  /// The partial DMRA run over displaced UEs (solve_dmra_partial):
  /// rematch.rounds / proposals_sent / rejections measure only the
  /// incremental work, which is the point of the comparison in abl7.
  DmraResult rematch;
};

/// Re-allocate `scenario` starting from `previous` (same UE ids; typically
/// the same population at new positions). Deterministic for a fixed
/// (scenario, previous, config) triple. `previous` may come from any
/// allocator — the validity check in step 1 only asks whether the old
/// assignment is feasible in the new scenario, not how it was produced.
/// The same solve_dmra_partial building block also backs the
/// fault-recovery repair pass in core/decentralized.cpp.
IncrementalResult solve_incremental_dmra(const Scenario& scenario,
                                         const Allocation& previous,
                                         const IncrementalConfig& config = {});

/// A persistent allocator process over one (immutable) scenario: the
/// explicit remove/re-admit surface the serving driver (sim/churn.hpp)
/// feeds one event at a time, instead of batch rebuilds.
///
/// The scenario is treated as a *slot universe*: every UE id is a slot
/// that may be admitted (active, holding resources or cloud-forwarded)
/// or removed (inactive, holding nothing). An inactive slot is
/// indistinguishable from a cloud slot in the Allocation (both are
/// cloud/-1 and contribute zero profit), so check_feasibility and the
/// InvariantAuditor apply unchanged; activity is tracked here.
///
/// admit() is Alg. 1 specialized to a single proposer: the UE proposes to
/// its arg-min preference candidate (Eq. 17 against the live ledger) and
/// an uncontended BS accepts any feasible proposal, so one proposal round
/// decides — provably the same outcome solve_dmra_partial computes for
/// one unmatched UE (pinned by tests/core/incremental_test.cpp), at
/// O(|candidates(u)|) per decision instead of O(|U|).
///
/// Fault surface (event-timeline injection, docs/RESILIENCE.md): crash
/// and degradation clamp the live ledger below nominal capacity via
/// ResourceState::clamp_remaining; recover_bs restores it with a
/// recount_remaining. While any clamp is active the ledger legitimately
/// disagrees with a from-scratch recount, so audit_round() mutes itself —
/// the same "repair under muted auditor" rule the decentralized runtime
/// follows — and reports again once capacity_nominal() returns true.
class IncrementalAllocator {
 public:
  explicit IncrementalAllocator(const Scenario& scenario, IncrementalConfig config = {});

  /// Admit inactive slot u. Returns the serving BS, or nullopt when no
  /// candidate can carry it (cloud-forwarded, still active).
  std::optional<BsId> admit(UeId u);

  /// Retry placement for an *active, cloud-forwarded* slot — the
  /// crash-recovery drain of sim/churn: capacity may have freed or
  /// recovered since the slot was last decided. Same decision rule as
  /// admit(); returns the BS if it now fits, nullopt to stay at the cloud.
  std::optional<BsId> reattempt(UeId u);

  /// The readmit sweep of sim/churn: retry placement, with reattempt()'s
  /// rule, for every *waiting* slot (active, cloud-forwarded, at least one
  /// candidate) in ascending slot order, calling on_placed(UeId, BsId) for
  /// each one that now fits. Visits exactly the slots a scan of the whole
  /// universe with that predicate would, in the same order, but costs
  /// O(universe / 64 + waiting): the waiting set is a bitset updated
  /// wherever the predicate can change (place, remove, crash_bs).
  /// on_placed must not call back into the allocator.
  template <typename OnPlaced>
  void readmit_waiting(OnPlaced&& on_placed);

  /// Remove active slot u, releasing its resources (departure).
  void remove(UeId u);

  bool active(UeId u) const { return active_[u.idx()]; }
  std::size_t num_active() const { return num_active_; }

  /// Crash BS i: remaining capacity clamps to zero and every UE it serves
  /// is evicted to the cloud (still active — the caller re-admits them).
  /// Evicted UE ids are appended to `orphans` in ascending order.
  /// Returns the eviction count.
  std::size_t crash_bs(BsId i, std::vector<UeId>& orphans);

  /// Recover BS i cold: nominal capacity minus current commitments
  /// (none right after a crash; partial after a degradation recovery).
  void recover_bs(BsId i);

  /// Scale BS i's *remaining* capacity by the given factors (floor),
  /// FaultPlan::CapacityDegradation semantics: admitted UEs keep service.
  void degrade_bs(BsId i, double cru_factor, double rrb_factor);

  /// True iff no crash/degradation clamp is in effect anywhere.
  bool capacity_nominal() const { return clamped_bss_ == 0; }

  /// Report the live ledger + allocation at the audit seam (round 0 =
  /// stateless: feasibility + ledger recount, no monotone-profit chain —
  /// departures lower profit by design). No-op while a clamp is active
  /// or when auditing is disabled.
  void audit_round(std::size_t round) const;

  const Allocation& allocation() const { return allocation_; }
  const ResourceState& state() const { return state_; }
  const Scenario& scenario() const { return *scenario_; }

  /// Eq. 11 profit of the current allocation, maintained incrementally
  /// (Σ pair_profit over served slots — cross-checked against
  /// total_profit() by tests).
  double live_profit() const { return live_profit_; }

 private:
  /// The shared single-proposer decision: arg-min Eq. 17 over serviceable
  /// candidates, commit on success, cloud otherwise.
  std::optional<BsId> place(UeId u);

  // dmra::hotpath begin(waiting-set)
  void set_waiting(UeId u) { waiting_[u.idx() / 64] |= std::uint64_t{1} << (u.idx() % 64); }
  void clear_waiting(UeId u) {
    waiting_[u.idx() / 64] &= ~(std::uint64_t{1} << (u.idx() % 64));
  }
  // dmra::hotpath end(waiting-set)

  const Scenario* scenario_;
  IncrementalConfig config_;
  ResourceState state_;
  Allocation allocation_;
  std::vector<bool> active_;
  /// Bit per slot, sized at construction: active ∧ cloud ∧ candidates.
  std::vector<std::uint64_t> waiting_;
  std::vector<bool> clamped_;  ///< per BS: capacity currently clamped
  std::size_t num_active_ = 0;
  std::size_t clamped_bss_ = 0;
  double live_profit_ = 0.0;
};

template <typename OnPlaced>
void IncrementalAllocator::readmit_waiting(OnPlaced&& on_placed) {
  // dmra::hotpath begin(readmit-walk)
  for (std::size_t w = 0; w < waiting_.size(); ++w) {
    // A placement clears only the bit being visited, so walking a copy of
    // the word sees every slot still waiting when its turn comes.
    for (std::uint64_t bits = waiting_[w]; bits != 0; bits &= bits - 1) {
      const UeId u{static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits))};
      if (const std::optional<BsId> bs = place(u)) on_placed(u, *bs);
    }
  }
  // dmra::hotpath end(readmit-walk)
}

}  // namespace dmra
