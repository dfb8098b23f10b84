// Mutable resource ledger: remaining CRUs per (BS, service) and remaining
// RRBs per BS, with commit/release bookkeeping.
//
// Algorithms mutate a ResourceState while deciding the association; the
// final Allocation can always be re-validated from scratch against the
// Scenario (sim/feasibility.hpp), so the ledger is an optimization, not
// the source of truth.
#pragma once

#include <cstdint>
#include <vector>

#include "mec/ids.hpp"
#include "mec/scenario.hpp"

namespace dmra {

class Allocation;

class ResourceState {
 public:
  /// Full capacities from the scenario's BSs.
  explicit ResourceState(const Scenario& scenario);

  // The two ledger reads are defined here, not in resources.cpp, so every
  // preference pass that closes over a ResourceState inlines them.

  /// Remaining CRUs of service j at BS i.
  std::uint32_t remaining_crus(BsId i, ServiceId j) const { return crus_[cru_index(i, j)]; }

  /// Remaining RRBs at BS i.
  std::uint32_t remaining_rrbs(BsId i) const { return rrbs_[i.idx()]; }

  /// True iff BS i can currently serve UE u: i is one of u's candidates
  /// and has the CRUs and the RRBs (n(u,i) from u's candidate row).
  bool can_serve(UeId u, BsId i) const;
  /// can_serve with n(u,i) already in hand. An out-of-coverage link has
  /// n(u,i) = 0.
  bool fits(const UserEquipment& e, BsId i, std::uint32_t n_rrbs) const {
    return n_rrbs != 0 && remaining_crus(i, e.service) >= e.cru_demand &&
           remaining_rrbs(i) >= n_rrbs;
  }

  /// Deduct u's demands from i. `n_rrbs` is n(u,i), which the caller
  /// already holds from u's candidate row (candidate_rrbs(u)[k], a
  /// proposal's n_rrbs, or Scenario::candidate_rrbs(u, i) for a caller
  /// that holds only the BS). Requires that i can carry it.
  void commit(UeId u, BsId i, std::uint32_t n_rrbs);

  /// Return u's demands to i (inverse of commit, with the same n(u,i)).
  /// The caller is responsible for pairing releases with prior commits.
  void release(UeId u, BsId i, std::uint32_t n_rrbs);

  /// Lower i's remaining resources to at most the given levels (per-service
  /// CRUs, then RRBs); levels already below the caps are kept. Used by the
  /// fault-recovery repair pass to reconcile a from-scratch recount with
  /// the live BS agents' own ledgers (crashed BSs clamp to zero), so a
  /// repair never hands out capacity a BS does not believe it has.
  /// `cru_caps` must have one entry per service.
  void clamp_remaining(BsId i, const std::vector<std::uint32_t>& cru_caps,
                       std::uint32_t rrb_cap);

  /// Reset i's remaining resources to its full scenario capacity, as if
  /// it served nobody. A caller that knows who i still serves commits
  /// them again afterwards (IncrementalAllocator::recover_bs).
  void restore_capacity(BsId i);

  /// Recompute i's remaining resources from scratch: full scenario
  /// capacity minus the demands of every UE `alloc` currently assigns to
  /// i. O(|U|): the reference that tests hold a BS's recovered ledger to;
  /// IncrementalAllocator::recover_bs gets the same levels from
  /// restore_capacity plus a commit per active slot the BS still serves.
  void recount_remaining(BsId i, const Allocation& alloc);

  /// Total remaining CRUs at i summed over services + remaining RRBs —
  /// the denominator of the DMRA preference (Eq. 17 uses the per-service
  /// CRU remainder; see remaining_for_preference).
  std::uint32_t remaining_for_preference(BsId i, ServiceId j) const;

  const Scenario& scenario() const { return *scenario_; }

 private:
  const Scenario* scenario_;
  std::vector<std::uint32_t> crus_;  // |B| × |S| row-major
  std::vector<std::uint32_t> rrbs_;  // |B|

  std::size_t cru_index(BsId i, ServiceId j) const {
    return i.idx() * scenario_->num_services() + j.idx();
  }
};

}  // namespace dmra
