// The direct (in-memory) DMRA solver — Alg. 1 executed round by round
// against the global resource state.
//
// This is the fast path used by benchmarks and large sweeps. The
// decentralized runtime (core/decentralized.hpp) executes the same
// decision logic over an explicit message bus and is proven equivalent
// by tests; use it when you care about the protocol, use this when you
// care about the result.
#pragma once

#include <span>

#include "core/preference.hpp"
#include "mec/allocation.hpp"
#include "mec/scenario.hpp"

namespace dmra {

/// Outcome of a DMRA run plus convergence diagnostics.
struct DmraResult {
  Allocation allocation{0};
  std::size_t rounds = 0;          ///< matching iterations executed
  std::size_t proposals_sent = 0;  ///< total UE→BS proposals
  std::size_t rejections = 0;      ///< proposals not accepted in their round
};

/// Run DMRA on a scenario. Deterministic; terminates in at most |U|
/// rounds (each round with proposals matches at least one UE).
DmraResult solve_dmra(const Scenario& scenario, const DmraConfig& config = {});

// Forward declaration; defined in mec/resources.hpp.
class ResourceState;

/// Run the DMRA matching for the UEs in `proposers` against an existing
/// resource state; nobody else proposes. `proposers` must be strictly
/// ascending UE ids of the scenario, each at the cloud in `allocation`.
/// They are matched into whatever `state` has left, and on return `state`
/// and `allocation` hold the new assignments; the result's own allocation
/// is left empty. Each round walks only the proposers still seeking a BS.
/// `rows`, if given, holds the proposers' live candidate rows: a caller
/// that solves on one scenario again and again keeps one across calls, so
/// no call sizes a pool to the whole scenario. This is the building block
/// of the fault-recovery repair and sharded reconcile passes (core/) and
/// of the serving loop's periodic re-solve (sim/churn).
DmraResult solve_dmra_partial(const Scenario& scenario, const DmraConfig& config,
                              ResourceState& state, Allocation& allocation,
                              std::span<const UeId> proposers, LiveCandidates* rows = nullptr);

}  // namespace dmra
