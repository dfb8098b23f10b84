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

  // Ablation switches (bench/abl2_tiebreaks): each disables one design
  // choice of Alg. 1's BS-side preference. Leave at the defaults for the
  // paper's algorithm.
  /// BSs prefer same-SP proposers first (the multi-SP insight).
  bool prefer_same_sp = true;
  /// Tie-break by fewest covering BSs (serve the least-flexible UE first).
  bool use_coverage_count = true;
  /// Tie-break by smallest resource footprint n(u,i) + c_j^u.
  bool use_footprint = true;
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
/// A row lives at its UE's Scenario::candidate_offset and never grows, so
/// the pool is sized once by build(); erasing a BS is an order-preserving
/// left shift inside the row. Slot indices are local to the row:
/// scenario.candidates(u)[slot], candidate_prices(u)[slot], and
/// candidate_rrbs(u)[slot] are one row's parallel SoA arrays.
class LiveCandidates {
 public:
  /// Reset the rows of `ues` to their full candidate lists (slots
  /// 0..row-1, ascending BsId). Every other UE's row is empty. The first
  /// build sizes the pool to the scenario; a later build on a scenario of
  /// the same shape keeps it and empties only the previous build's rows,
  /// so it costs O(rows built), not O(scenario). Keeps a pointer to
  /// `scenario`, which must outlive every later call.
  void build(const Scenario& scenario, std::span<const UeId> ues);

  std::span<const std::uint32_t> live(UeId u) const {
    return {slots_.data() + scenario_->candidate_offset(u), len_[u.idx()]};
  }
  bool empty(UeId u) const { return len_[u.idx()] == 0; }

  /// Remove the row entry at live-position `pos` (order-preserving).
  void erase_at(UeId u, std::size_t pos) {
    // dmra::hotpath begin(live-candidates)
    const std::size_t base = scenario_->candidate_offset(u);
    std::size_t& len = len_[u.idx()];
    DMRA_REQUIRE(pos < len);
    for (std::size_t k = pos + 1; k < len; ++k) slots_[base + k - 1] = slots_[base + k];
    --len;
    // dmra::hotpath end(live-candidates)
  }

  /// Remove BS `i` from u's row if present (the decentralized runtime's
  /// presumed-dead path). Order-preserving.
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

  /// Remove every slot of u's row for which `drop(slot)` holds, keeping
  /// the rest in order.
  template <typename Pred>
  void erase_if(UeId u, Pred&& drop) {
    // dmra::hotpath begin(live-compact)
    std::uint32_t* const row = slots_.data() + scenario_->candidate_offset(u);
    std::size_t& len = len_[u.idx()];
    std::size_t kept = 0;
    for (std::size_t k = 0; k < len; ++k)
      if (!drop(row[k])) row[kept++] = row[k];
    len = kept;
    // dmra::hotpath end(live-compact)
  }

 private:
  const Scenario* scenario_ = nullptr;
  std::vector<std::uint32_t> slots_;  ///< rows of local slot indices, by candidate_offset
  std::vector<std::size_t> len_;      ///< per-UE live length
  std::vector<UeId> built_;           ///< the UEs of the last build: the only rows not empty
};

/// One UE's move in the UE phase of Alg. 1: the BS it proposes to, or
/// nullopt once B_u is exhausted (→ remote cloud), the f_u that travels
/// with the proposal, and the BS's place in u's candidate row — its
/// row-local slot and n(u,i) — so no later step looks the link up.
struct Proposal {
  std::optional<BsId> bs;
  std::uint32_t f_u = 0;
  std::uint32_t slot = 0;    ///< candidates(u)[slot] == *bs
  std::uint32_t n_rrbs = 0;  ///< candidate_rrbs(u)[slot]
};

/// UE proposal step (Alg. 1 lines 4–10) in one pass over u's *full*
/// candidate row, reading the view once per slot. `view` is any callable
/// `(std::size_t global_slot, BsId i) -> std::pair<std::uint32_t,
/// std::uint32_t>` returning (remaining CRUs of u's service at i,
/// remaining RRBs at i) — the solver closes over ResourceState, the
/// decentralized runtime over the levels each UE holds per candidate slot.
///
/// * f_u counts the serviceable BSs of the full row — not just the live
///   row: a BS dropped from B_u still counts while the view says it could
///   serve u (a BS cannot compute f_u itself; it knows only its own load).
/// * The choice is the argmin of (v(u,i), BsId) over the *serviceable*
///   entries of the live row.
/// * Line 10 erases exactly what proposing, erasing an unserviceable
///   argmin and proposing again would: every live entry whose (v, BsId)
///   sorts before the choice — all unserviceable by construction — or the
///   whole row when nothing is serviceable. Unserviceable entries that
///   sort after the choice stay: a view that can grow (a stale broadcast,
///   the optimistic prior, a rebooted BS) may make them serviceable again.
template <typename ViewFn>
Proposal propose_soa(const Scenario& scenario, LiveCandidates& lc, UeId u, double rho,
                     ViewFn&& view) {
  DMRA_REQUIRE(rho >= 0.0);
  // dmra::hotpath begin(propose)
  const std::span<const BsId> cands = scenario.candidates(u);
  const std::span<const double> prices = scenario.candidate_prices(u);
  const std::span<const std::uint32_t> rrb_demand = scenario.candidate_rrbs(u);
  const std::size_t base = scenario.candidate_offset(u);
  const std::uint32_t cru_demand = scenario.ue(u).cru_demand;
  const std::span<const std::uint32_t> row = lc.live(u);
  // Slots are row-local and ascending in BsId, so comparing slots breaks
  // ties exactly as comparing BsIds, and a strict < keeps the first
  // (smaller) one. Until a serviceable entry is found the choice reads
  // (+inf, kNone), which every entry sorts before.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::size_t best = kNone;  // serviceable live argmin
  std::size_t lost = kNone;  // unserviceable live argmin
  double best_v = std::numeric_limits<double>::infinity();
  double lost_v = 0.0;
  std::uint32_t f_u = 0;
  std::size_t next = 0;  // position in the live row, a subsequence of the full row
  for (std::size_t k = 0; k < cands.size(); ++k) {
    const auto [crus, rrbs] = view(base + k, cands[k]);
    const bool serviceable = rrb_demand[k] != 0 && crus >= cru_demand && rrbs >= rrb_demand[k];
    f_u += serviceable ? 1 : 0;
    if (next == row.size() || row[next] != k) continue;  // not in B_u
    ++next;
    const double v = ue_preference_value(prices[k], rho, crus, rrbs);
    if (serviceable) {
      if (best == kNone || v < best_v) {
        best = k;
        best_v = v;
      }
    } else if (lost == kNone || v < lost_v) {
      lost = k;
      lost_v = v;
    }
  }
  const auto before_choice = [&](double v, std::size_t k) {
    return v < best_v || (v == best_v && k < best);
  };
  if (lost != kNone && before_choice(lost_v, lost)) {
    // Some entry Alg. 1 would have tried before the choice is
    // unserviceable: drop every such entry, in one order-preserving pass.
    lc.erase_if(u, [&](std::uint32_t k) {
      const auto [crus, rrbs] = view(base + k, cands[k]);
      return before_choice(ue_preference_value(prices[k], rho, crus, rrbs), k);
    });
  }
  if (best == kNone) return {std::nullopt, f_u};
  return {cands[best], f_u, static_cast<std::uint32_t>(best), rrb_demand[best]};
  // dmra::hotpath end(propose)
}

/// One UE's proposal as seen by a BS: the UE id, the f_u the UE reported
/// (a BS cannot compute f_u itself — it only knows its own load) and
/// n(u,i), the RRBs u needs at this BS, read from u's candidate row.
struct ProposalInfo {
  UeId ue;
  std::uint32_t f_u = 0;
  std::uint32_t n_rrbs = 0;
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
/// the per-proposal key/proposal/demand rows, the winner list, and the
/// accepted return buffer. Reuse one instance across rounds — every buffer
/// keeps its capacity, so steady-state calls perform no heap allocation.
class BsSelectWorkspace {
 public:
  /// Optionally warm the buffers (num_services buckets, up to
  /// max_proposals rows) so even the first call does not grow them.
  void reserve(std::size_t num_services, std::size_t max_proposals);

 private:
  friend const std::vector<ProposalInfo>& bs_select(const Scenario&, BsId,
                                                    std::span<const ProposalInfo>,
                                                    const BsLocalResources&,
                                                    BsSelectWorkspace&, const DmraConfig&);
  std::vector<std::uint32_t> counts_;    ///< per-service counts, then cursors
  std::vector<std::uint32_t> offsets_;   ///< per-service group begin
  std::vector<BsPrefKey> keys_;          ///< grouped rows: preference key
  std::vector<ProposalInfo> props_;      ///<   …the proposal
  std::vector<std::uint32_t> demands_;   ///<   …c_j^u CRU demand
  std::vector<std::uint32_t> winners_;   ///< row indices of service winners
  std::vector<ProposalInfo> accepted_;   ///< the sorted return buffer
};

/// BS acceptance step (Alg. 1 lines 11–25): per requested service pick one
/// winner (same-SP pool first, then min f_u, then min footprint
/// n(u,i)+c_j^u, then min UeId), then trim the winner set to the RRB
/// budget by dropping the BS's least-preferred winners. Returns the
/// accepted proposals sorted by UE id — a reference into `ws`, valid until
/// the next call on the same workspace. The input order of `proposals`
/// does not matter; each must carry its n(u,i) (nonzero, as every
/// candidate slot's is). `config`'s ablation switches control which
/// tie-breaks participate.
const std::vector<ProposalInfo>& bs_select(const Scenario& scenario, BsId i,
                                           std::span<const ProposalInfo> proposals,
                                           const BsLocalResources& local,
                                           BsSelectWorkspace& ws, const DmraConfig& config = {});

/// Convenience overload with a per-call workspace (tests, benches, cold
/// paths): the accepted UE ids, sorted. Same decisions; pays the workspace
/// allocations each call.
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
