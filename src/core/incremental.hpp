// Incremental DMRA serving — the paper's "continuously adjust the
// resource allocation scheme" (§V/§VII) made operational: a persistent
// allocator that admits, re-places and releases one UE at a time against
// a live ledger, fed one event at a time by the serving driver
// (sim/churn.hpp, docs/SERVING.md).
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/solver.hpp"
#include "mec/allocation.hpp"
#include "mec/allocator.hpp"
#include "mec/resources.hpp"

namespace dmra {

struct IncrementalConfig {
  /// ρ of the built-in Eq. 17 rule; sim/churn's periodic re-solve runs
  /// solve_dmra_partial with the whole config.
  DmraConfig dmra;
  /// Optional admission rule (docs/SERVING.md, "Admission rules").
  /// nullptr keeps the built-in single-proposer Eq. 17 rule. Otherwise
  /// every placement asks this one-shot allocator about the slot alone,
  /// on a residual scenario: the deployment with the live remaining
  /// capacities and that slot as its only UE. The rule must outlive the
  /// allocator, and the channel must be unshadowed: the residual renumbers
  /// the slot to UE 0, and shadowing draws are keyed by UE id.
  const Allocator* rule = nullptr;
};

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
/// O(|candidates(u)|) per decision instead of O(|U|). With
/// IncrementalConfig::rule set, the rule decides instead; the ledger,
/// waiting set and fault surface below are the same for every rule.
///
/// Fault surface (event-timeline injection, docs/RESILIENCE.md): crash
/// and degradation clamp the live ledger below nominal capacity via
/// ResourceState::clamp_remaining; recover_bs restores it with a
/// recount_remaining. While any clamp is active the ledger legitimately
/// disagrees with a from-scratch recount, so audit_round() mutes itself —
/// the same "repair under muted auditor" rule the decentralized runtime
/// follows — and reports again only once every clamped BS has recovered.
/// FaultPlan degradations never recover, so after one the audit stays
/// muted for the rest of the run.
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
  /// rule, for the *waiting* slots (active, cloud-forwarded, at least one
  /// candidate) in ascending slot order, calling on_placed(UeId, BsId) for
  /// each one that now fits. Places exactly what retrying every waiting
  /// slot would, in the same order, but retries only the slots that a BS
  /// *raised* since the last sweep (its capacity rose, or a crash orphan or
  /// a rule-refused slot may fit it) can carry at their turn: a k-way merge
  /// over those BSs' ascending waiting lists (docs/SERVING.md, "What a
  /// readmit sweep visits"). on_placed must not call back into the
  /// allocator.
  template <typename OnPlaced>
  void readmit_waiting(OnPlaced&& on_placed);

  /// Remove active slot u, releasing its resources (departure). Releases
  /// on a degraded BS too: a clamp scales only *remaining* capacity, so
  /// what u held was never part of it. (A crashed BS serves nobody.)
  void remove(UeId u);

  bool active(UeId u) const { return ((active_[u.idx() / 64] >> (u.idx() % 64)) & 1) != 0; }
  std::size_t num_active() const { return num_active_; }

  /// Call f(UeId) for every active slot, ascending, in O(universe / 64 +
  /// active): the walk behind crash_bs, recover_bs and sim/churn's
  /// periodic re-solve. f must not admit or remove slots.
  template <typename F>
  void for_each_active(F&& f) const;

  /// Crash BS i: remaining capacity clamps to zero and every UE it serves
  /// is evicted to the cloud (still active — the caller re-admits them).
  /// Evicted UE ids are appended to `orphans` in ascending order.
  /// Returns the eviction count. Walks the active slots only.
  std::size_t crash_bs(BsId i, std::vector<UeId>& orphans);

  /// Recover BS i cold: nominal capacity minus current commitments
  /// (none right after a crash; partial after a degradation recovery),
  /// recommitted from the active slots it still serves.
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

  /// Eq. 11 profit of the current allocation, maintained incrementally:
  /// each placement adds, and each removal or eviction subtracts, the
  /// serving slot's Scenario::candidate_profit (pair_profit's bits), so no
  /// event searches the link store. Cross-checked against total_profit()
  /// by tests; sim/churn's re-solve compares it with a scratch solve.
  double live_profit() const { return live_profit_; }

 private:
  /// The shared decision: the rule's choice, or arg-min Eq. 17 over
  /// serviceable candidates without one; commit the winning candidate
  /// slot on success, cloud otherwise.
  std::optional<BsId> place(UeId u);

  /// config_.rule's answer for slot u on the residual scenario, with the
  /// trace and flight recorders muted; live_fu gets the residual's |B_u|.
  std::optional<BsId> ask_rule(UeId u, std::uint32_t& live_fu) const;

  /// One entry of a BS's waiting list: a slot that lists the BS, and
  /// n(u,i) from the slot's candidate row, or kGone once a sweep found the
  /// slot no longer waiting (later sweeps then pass it at the RRB test).
  struct WaitEntry {
    std::uint32_t slot;
    std::uint32_t rrbs;
  };
  static constexpr std::uint32_t kGone = 0xffffffffu;
  /// Per BS: the waiting slots that list it, ascending. An entry whose slot
  /// left the waiting set stays until the list has doubled since its last
  /// compaction.
  struct WaitList {
    std::vector<WaitEntry> entries;
    std::size_t compacted = 0;  ///< size after the last compaction
  };
  /// A sweep's place in one raised BS's list: entries[read] is its head.
  struct SweepCursor {
    std::uint32_t head;  ///< entries[read].slot
    std::uint32_t bs;
    std::uint32_t read;
  };

  // dmra::hotpath begin(waiting-set)
  bool waiting(UeId u) const { return ((waiting_[u.idx() / 64] >> (u.idx() % 64)) & 1) != 0; }
  void set_waiting(UeId u) { waiting_[u.idx() / 64] |= std::uint64_t{1} << (u.idx() % 64); }
  void clear_waiting(UeId u) {
    waiting_[u.idx() / 64] &= ~(std::uint64_t{1} << (u.idx() % 64));
  }
  /// The next sweep walks BS i's list: its capacity rose, or a waiting
  /// slot may fit it (a crash orphan, or a slot a rule refused).
  void raise(BsId i) { raised_[i.idx()] = true; }
  // dmra::hotpath end(waiting-set)

  /// Mark u waiting and list it under each of its candidates.
  void enter_waiting(UeId u);
  /// Start a sweep: one cursor per raised BS with a head; clears the
  /// raised set.
  void begin_sweep();
  /// The sweep's next slot to retry: the smallest head that still fits its
  /// BS, or nullopt once every list is walked.
  std::optional<UeId> next_readmit();
  /// Move c to the first entry from c.read on that still waits and fits
  /// the BS; false at the end of the list.
  bool seek(SweepCursor& c);

  const Scenario* scenario_;
  IncrementalConfig config_;
  ResourceState state_;
  Allocation allocation_;
  /// Bit per slot, sized at construction: admitted and not yet removed.
  std::vector<std::uint64_t> active_;
  /// Bit per slot, sized at construction: active ∧ cloud ∧ candidates.
  std::vector<std::uint64_t> waiting_;
  std::vector<WaitList> wait_lists_;  ///< per BS
  std::vector<bool> raised_;          ///< per BS: raised since the last sweep
  std::vector<SweepCursor> sweep_;    ///< the running sweep's cursors
  std::uint64_t sweep_next_ = 0;      ///< the running sweep's smallest unvisited slot
  std::vector<bool> clamped_;  ///< per BS: capacity currently clamped
  std::size_t num_active_ = 0;
  std::size_t clamped_bss_ = 0;
  double live_profit_ = 0.0;
};

template <typename F>
void IncrementalAllocator::for_each_active(F&& f) const {
  for (std::size_t w = 0; w < active_.size(); ++w)
    for (std::uint64_t bits = active_[w]; bits != 0; bits &= bits - 1)
      f(UeId{static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits))});
}

template <typename OnPlaced>
void IncrementalAllocator::readmit_waiting(OnPlaced&& on_placed) {
  begin_sweep();
  // dmra::hotpath begin(readmit-walk)
  while (const std::optional<UeId> u = next_readmit())
    if (const std::optional<BsId> bs = place(*u)) on_placed(*u, *bs);
  // dmra::hotpath end(readmit-walk)
}

}  // namespace dmra
