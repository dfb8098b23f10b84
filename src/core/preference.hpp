// DMRA preference functions and the shared selection logic of Alg. 1.
//
// Both the direct solver (core/solver.hpp) and the decentralized agent
// runtime (core/decentralized.hpp) call into these functions, so the two
// implementations cannot drift apart: the equivalence test between them
// is a test of the message protocol, not of duplicated decision code.
//
// All decisions are order-independent (ties broken by explicit ids), so
// the result does not depend on the order proposals happen to arrive in.
//
// Hot-path shape (ROADMAP item 2): the per-round passes run over
// structure-of-arrays rows. A UE's shrinking candidate list B_u lives in
// LiveCandidates as slot indices into the scenario's CSR candidate rows,
// so preference evaluation reads the precomputed candidate_prices() /
// candidate_rrbs() arrays contiguously; bs_select runs its service
// grouping and winner selection inside a caller-owned BsSelectWorkspace.
// Neither allocates once the workspace high-water marks are reached.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "mec/ids.hpp"
#include "mec/scenario.hpp"
#include "util/require.hpp"

namespace dmra {

/// Tunables of DMRA itself (Alg. 1 / Eq. 17).
struct DmraConfig {
  /// ρ of Eq. 17: weight of remaining resources in the UE preference.
  /// ρ = 0 makes UEs purely price-driven.
  double rho = 100.0;
  /// Safety bound on iterations; 0 means "no explicit bound" (the
  /// algorithm provably terminates in ≤ |U| iterations anyway).
  std::size_t max_rounds = 0;

  // Ablation switches (bench/abl2_tiebreaks): each disables one design
  // choice of Alg. 1's BS-side preference. Leave at the defaults for the
  // paper's algorithm.
  /// BSs prefer same-SP proposers first (the multi-SP insight).
  bool prefer_same_sp = true;
  /// Tie-break by fewest covering BSs (serve the least-flexible UE first).
  bool use_coverage_count = true;
  /// Tie-break by smallest resource footprint n(u,i) + c_j^u.
  bool use_footprint = true;
  /// If true, a UE rejected by a BS removes that BS from B_u and moves on
  /// (classic one-shot deferred acceptance). Alg. 1's literal reading —
  /// and the default — is false: a rejected UE may re-propose once the
  /// next broadcast shows the BS still serviceable, and only an
  /// *unserviceable* BS leaves B_u (line 10). One-shot rejection burns
  /// candidate options under contention and measurably hurts every metric
  /// (see bench/abl2_tiebreaks).
  bool drop_rejected = false;
};

/// Eq. 17: v(u,i) = p(i,u) + ρ / (remaining CRUs of u's service at i +
/// remaining RRBs at i). An exhausted BS (nothing remaining) is never
/// preferred: +inf, or the bare price when ρ = 0.
inline double ue_preference_value(double price, double rho, std::uint32_t crus,
                                  std::uint32_t rrbs) {
  const double remaining = static_cast<double>(crus) + static_cast<double>(rrbs);
  if (remaining <= 0.0) return rho > 0.0 ? std::numeric_limits<double>::infinity() : price;
  return price + rho / remaining;
}

/// The per-UE shrinking candidate lists (every B_u of Alg. 1) packed into
/// one flat pool of slot indices into the scenario's CSR candidate rows.
/// Rows never grow, so the pool is sized once by build(); erasing a BS is
/// an order-preserving left shift inside the row. Slot indices are local
/// to the row: scenario.candidates(u)[slot], candidate_prices(u)[slot],
/// and candidate_rrbs(u)[slot] are one row's parallel SoA arrays.
class LiveCandidates {
 public:
  /// Size the pool to the scenario and reset every row to the full
  /// candidate list (slots 0..row-1, ascending BsId).
  void build(const Scenario& scenario);

  std::span<const std::uint32_t> live(UeId u) const {
    return {slots_.data() + offsets_[u.idx()], len_[u.idx()]};
  }
  bool empty(UeId u) const { return len_[u.idx()] == 0; }

  /// Remove the row entry at live-position `pos` (order-preserving).
  void erase_at(UeId u, std::size_t pos) {
    // dmra::hotpath begin(live-candidates)
    const std::size_t base = offsets_[u.idx()];
    std::size_t& len = len_[u.idx()];
    DMRA_REQUIRE(pos < len);
    for (std::size_t k = pos + 1; k < len; ++k) slots_[base + k - 1] = slots_[base + k];
    --len;
    // dmra::hotpath end(live-candidates)
  }

  /// Remove BS `i` from u's row if present (the decentralized runtime's
  /// drop-rejected / presumed-dead paths). Order-preserving.
  void erase_bs(const Scenario& scenario, UeId u, BsId i) {
    const std::span<const BsId> cands = scenario.candidates(u);
    const std::span<const std::uint32_t> row = live(u);
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (cands[row[k]] == i) {
        erase_at(u, k);
        return;
      }
    }
  }

 private:
  std::vector<std::uint32_t> slots_;  ///< flat rows of local slot indices
  std::vector<std::size_t> offsets_;  ///< per-UE row base (full row capacity)
  std::vector<std::size_t> len_;      ///< per-UE live length
};

/// UE proposal step (Alg. 1 lines 4–10): argmin v(u,i) over u's live
/// row, erasing slots whose BS can no longer serve u. Returns the chosen
/// BS, or nullopt once the row is exhausted (→ remote cloud). Ties in v
/// go to the smaller BsId. `view` is any callable `(std::size_t
/// global_slot, BsId i) -> std::pair<std::uint32_t, std::uint32_t>`
/// returning (remaining CRUs of u's service at i, remaining RRBs at i) —
/// the solver closes over ResourceState, the decentralized runtime over
/// its per-slot broadcast arrays.
template <typename ViewFn>
std::optional<BsId> choose_proposal_soa(const Scenario& scenario, LiveCandidates& lc,
                                        UeId u, double rho, ViewFn&& view) {
  DMRA_REQUIRE(rho >= 0.0);
  // dmra::hotpath begin(choose-proposal)
  const std::span<const BsId> cands = scenario.candidates(u);
  const std::span<const double> prices = scenario.candidate_prices(u);
  const std::span<const std::uint32_t> rrb_demand = scenario.candidate_rrbs(u);
  const std::size_t base = scenario.candidate_offset(u);
  const std::uint32_t cru_demand = scenario.ue(u).cru_demand;
  while (!lc.empty(u)) {
    const std::span<const std::uint32_t> row = lc.live(u);
    // argmin v(u,i); ties toward the smaller BsId for determinism (rows
    // stay ascending in BsId, so the first minimum wins ties).
    std::size_t best = 0;
    auto [best_crus, best_rrbs] = view(base + row[0], cands[row[0]]);
    double best_v = ue_preference_value(prices[row[0]], rho, best_crus, best_rrbs);
    for (std::size_t n = 1; n < row.size(); ++n) {
      const auto [crus, rrbs] = view(base + row[n], cands[row[n]]);
      const double v = ue_preference_value(prices[row[n]], rho, crus, rrbs);
      if (v < best_v || (v == best_v && cands[row[n]] < cands[row[best]])) {
        best = n;
        best_v = v;
        best_crus = crus;
        best_rrbs = rrbs;
      }
    }
    const std::uint32_t slot = row[best];
    if (rrb_demand[slot] != 0 && best_crus >= cru_demand && best_rrbs >= rrb_demand[slot])
      return cands[slot];
    // Resources only shrink, so an unserviceable BS stays unserviceable:
    // remove it permanently (Alg. 1 line 10).
    lc.erase_at(u, best);
  }
  return std::nullopt;
  // dmra::hotpath end(choose-proposal)
}

/// Live f_u: serviceable BSs among u's *full* candidate row (not the
/// shrinking live row — a BS dropped from B_u still counts while the view
/// says it could serve u). Same `view` callable as choose_proposal_soa.
template <typename ViewFn>
std::uint32_t live_coverage_count_soa(const Scenario& scenario, UeId u, ViewFn&& view) {
  // dmra::hotpath begin(coverage-count)
  const std::span<const BsId> cands = scenario.candidates(u);
  const std::span<const std::uint32_t> rrb_demand = scenario.candidate_rrbs(u);
  const std::size_t base = scenario.candidate_offset(u);
  const std::uint32_t cru_demand = scenario.ue(u).cru_demand;
  std::uint32_t n = 0;
  for (std::size_t k = 0; k < cands.size(); ++k) {
    if (rrb_demand[k] == 0) continue;
    const auto [crus, rrbs] = view(base + k, cands[k]);
    if (crus >= cru_demand && rrbs >= rrb_demand[k]) ++n;
  }
  return n;
  // dmra::hotpath end(coverage-count)
}

/// One UE's proposal as seen by a BS: the UE id plus the f_u the UE
/// reported (a BS cannot compute f_u itself — it only knows its own load).
struct ProposalInfo {
  UeId ue;
  std::uint32_t f_u = 0;
};

/// A BS's knowledge of its own remaining resources.
struct BsLocalResources {
  std::vector<std::uint32_t> crus;  ///< per service
  std::uint32_t rrbs = 0;
};

/// Lexicographic BS-side preference: same-SP first, then fewest covering
/// BSs, then smallest resource footprint, then smallest id. Smaller is
/// more preferred.
struct BsPrefKey {
  bool cross_sp;
  std::uint32_t f_u;
  std::uint32_t footprint;
  std::uint32_t ue;

  friend bool operator<(const BsPrefKey& a, const BsPrefKey& b) {
    return std::tie(a.cross_sp, a.f_u, a.footprint, a.ue) <
           std::tie(b.cross_sp, b.f_u, b.footprint, b.ue);
  }
};

/// Caller-owned scratch for bs_select: the counting-sort service grouping,
/// the per-proposal SoA key/feasibility rows, the winner list, and the
/// accepted return buffer. Reuse one instance across rounds — every buffer
/// keeps its capacity, so steady-state calls perform no heap allocation.
class BsSelectWorkspace {
 public:
  /// Optionally warm the buffers (num_services buckets, up to
  /// max_proposals rows) so even the first call does not grow them.
  void reserve(std::size_t num_services, std::size_t max_proposals);

 private:
  friend const std::vector<UeId>& bs_select(const Scenario&, BsId,
                                            std::span<const ProposalInfo>,
                                            const BsLocalResources&, BsSelectWorkspace&,
                                            const DmraConfig&);
  std::vector<std::uint32_t> counts_;    ///< per-service counts, then cursors
  std::vector<std::uint32_t> offsets_;   ///< per-service group begin
  std::vector<BsPrefKey> keys_;          ///< grouped rows: preference key
  std::vector<UeId> ues_;                ///<   …proposer
  std::vector<std::uint32_t> rrbs_;      ///<   …n(u,i) RRB demand
  std::vector<std::uint32_t> demands_;   ///<   …c_j^u CRU demand
  std::vector<std::uint32_t> winners_;   ///< row indices of service winners
  std::vector<UeId> accepted_;           ///< the sorted return buffer
};

/// BS acceptance step (Alg. 1 lines 11–25): per requested service pick one
/// winner (same-SP pool first, then min f_u, then min footprint
/// n(u,i)+c_j^u, then min UeId), then trim the winner set to the RRB
/// budget by dropping the BS's least-preferred winners. Returns accepted
/// UEs sorted by id — a reference into `ws`, valid until the next call on
/// the same workspace. The input order of `proposals` does not matter.
/// `config`'s ablation switches control which tie-breaks participate.
const std::vector<UeId>& bs_select(const Scenario& scenario, BsId i,
                                   std::span<const ProposalInfo> proposals,
                                   const BsLocalResources& local, BsSelectWorkspace& ws,
                                   const DmraConfig& config = {});

/// Convenience overload with a per-call workspace (tests, benches, cold
/// paths). Same decisions; pays the workspace allocations each call.
std::vector<UeId> bs_select(const Scenario& scenario, BsId i,
                            std::span<const ProposalInfo> proposals,
                            const BsLocalResources& local,
                            const DmraConfig& config = {});

/// Braced-list convenience (tests): spans cannot bind initializer lists.
inline std::vector<UeId> bs_select(const Scenario& scenario, BsId i,
                                   std::initializer_list<ProposalInfo> proposals,
                                   const BsLocalResources& local,
                                   const DmraConfig& config = {}) {
  return bs_select(scenario, i,
                   std::span<const ProposalInfo>(proposals.begin(), proposals.size()),
                   local, config);
}

}  // namespace dmra
