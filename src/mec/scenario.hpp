// The static problem instance: SPs, BSs, UEs, services, and all derived
// per-link radio quantities (paper §III).
//
// A Scenario is immutable once built; algorithms read it and track the
// mutable resource state separately (mec/resources.hpp). All per-(UE, BS)
// quantities of in-radius pairs — distance, SINR, per-RRB rate, RRB
// demand — are precomputed at construction, in one CSR row per UE, so
// that algorithms and the decentralized runtime agree on the channel
// exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geometry/geometry.hpp"
#include "mec/ids.hpp"
#include "mec/pricing.hpp"
#include "radio/channel.hpp"
#include "radio/ofdma.hpp"

namespace dmra {

/// A service provider (e.g. a mobile carrier). Owns BSs; UEs subscribe.
struct ServiceProvider {
  SpId id;
  std::string name;
};

/// A base station with a co-located MEC server.
struct BaseStation {
  BsId id;
  SpId sp;           ///< deploying/owning SP
  Point position;
  /// c_{i,j}: CRU capacity per service, indexed by ServiceId::idx().
  /// 0 means the service is not hosted (z_{i,j} = 0).
  std::vector<std::uint32_t> cru_capacity;
  /// N_i: uplink RRB budget.
  std::uint32_t num_rrbs = 0;
  /// Multiplier this BS applies to the Eq. 9/10 price (1.0 = the paper's
  /// uniform pricing). Lets BSs price-differentiate — see src/market.
  /// Must keep every coverage-feasible pair profitable (Eq. 16).
  double price_multiplier = 1.0;

  bool hosts(ServiceId j) const { return cru_capacity[j.idx()] > 0; }
};

/// A user equipment with one offloadable computing task.
struct UserEquipment {
  UeId id;
  SpId sp;                 ///< subscribed SP
  Point position;
  ServiceId service;       ///< the single requested service (J_{u,j} = 1)
  std::uint32_t cru_demand = 0;  ///< c_j^u
  double rate_demand_bps = 0.0;  ///< w_u
};

/// Precomputed uplink statistics for one (UE, BS) pair. A pair beyond the
/// coverage radius is all zeros; a pair within it that the radio cannot
/// serve at all (zero rate) keeps its distance and SINR but is out of
/// coverage with n_rrbs = 0.
struct LinkStats {
  double distance_m = 0.0;
  double sinr = 0.0;          ///< λ(u,i), linear
  double rrb_rate_bps = 0.0;  ///< e(u,i), Eq. 2
  std::uint32_t n_rrbs = 0;   ///< n(u,i), Eq. 3 (0 if out of coverage)
  bool in_coverage = false;   ///< within the coverage radius, nonzero rate
};

/// Plain-data inputs to Scenario construction. Generators (src/workload)
/// fill this in; tests may craft it by hand.
struct ScenarioData {
  std::size_t num_services = 0;
  std::vector<ServiceProvider> sps;
  std::vector<BaseStation> bss;
  std::vector<UserEquipment> ues;
  ChannelConfig channel;
  OfdmaConfig ofdma;
  PricingConfig pricing;
  /// A BS covers a UE iff their distance is at most this (see DESIGN.md).
  double coverage_radius_m = 500.0;
};

/// Immutable problem instance with derived link rows and candidate sets.
///
/// Throws ContractViolation if the data is inconsistent (non-contiguous
/// ids, out-of-range SP/service references, no SPs or services, or a
/// pricing configuration violating Eq. 16 anywhere in the deployment).
/// Zero-BS and zero-UE instances are legal degenerate cases (e.g. a
/// churn timeline with no arrivals): candidate sets are simply empty and
/// every UE is cloud-forwarded.
class Scenario {
 public:
  explicit Scenario(ScenarioData data);

  std::size_t num_sps() const { return data_.sps.size(); }
  std::size_t num_bss() const { return data_.bss.size(); }
  std::size_t num_ues() const { return data_.ues.size(); }
  std::size_t num_services() const { return data_.num_services; }

  const ServiceProvider& sp(SpId k) const { return data_.sps[k.idx()]; }
  const BaseStation& bs(BsId i) const { return data_.bss[i.idx()]; }
  const UserEquipment& ue(UeId u) const { return data_.ues[u.idx()]; }

  std::span<const ServiceProvider> sps() const { return data_.sps; }
  std::span<const BaseStation> bss() const { return data_.bss; }
  std::span<const UserEquipment> ues() const { return data_.ues; }

  const ChannelConfig& channel() const { return data_.channel; }
  const OfdmaConfig& ofdma() const { return data_.ofdma; }
  const PricingConfig& pricing() const { return data_.pricing; }
  double coverage_radius_m() const { return data_.coverage_radius_m; }

  /// Precomputed link statistics for any (u, i) pair: a binary search of
  /// u's link row. Pairs beyond the coverage radius yield the canonical
  /// zero stats (in_coverage = false, n_rrbs = 0). Hot loops never call
  /// this: a proposal carries n(u,i) from the candidate row.
  const LinkStats& link(UeId u, BsId i) const {
    // Branch-free search for the last entry <= i: rows are a few dozen
    // entries at most, where a mispredicted branch costs more than a step.
    const std::uint32_t* it = link_cols_.data() + link_offsets_[u.idx()];
    std::size_t n = link_offsets_[u.idx() + 1] - link_offsets_[u.idx()];
    if (n == 0) return kNoLink;
    for (; n > 1; n -= n / 2) it = it[n / 2] <= i.value ? it + n / 2 : it;
    if (*it != i.value) return kNoLink;
    return links_[static_cast<std::size_t>(it - link_cols_.data())];
  }

  /// u's link row: the in-radius BSs (BsId values, ascending) and their
  /// LinkStats, parallel. candidates(u) is a subsequence of `bss`, so a
  /// loop over candidates can walk the row instead of calling link().
  struct LinkRow {
    std::span<const std::uint32_t> bss;
    std::span<const LinkStats> stats;
  };
  LinkRow link_row(UeId u) const {
    const std::size_t b = link_offsets_[u.idx()], n = link_offsets_[u.idx() + 1] - b;
    return {{link_cols_.data() + b, n}, {links_.data() + b, n}};
  }

  /// B_u of Alg. 1: BSs that cover u, host u's requested service, and whose
  /// RRB budget could carry u at all (n(u,i) ≤ N_i). Sorted by BsId.
  std::span<const BsId> candidates(UeId u) const {
    return {candidates_.data() + cand_offsets_[u.idx()],
            cand_offsets_[u.idx() + 1] - cand_offsets_[u.idx()]};
  }

  /// f_u of Alg. 1 at t = 0: number of candidate BSs (the paper refines
  /// f_u to "with available resources"; algorithms recompute it against
  /// live resource state — this is the static upper bound).
  std::size_t coverage_count(UeId u) const { return candidates(u).size(); }

  /// p(i,u) per candidate slot, parallel to candidates(u) — the same
  /// doubles price() computes, hoisted to construction so the per-round
  /// preference passes read a contiguous array instead of re-deriving
  /// multiplier × cru_price per evaluation.
  std::span<const double> candidate_prices(UeId u) const {
    return {cand_price_.data() + cand_offsets_[u.idx()],
            cand_offsets_[u.idx() + 1] - cand_offsets_[u.idx()]};
  }

  /// n(u,i) per candidate slot, parallel to candidates(u). Nonzero for
  /// every slot (a zero-RRB link is never a candidate).
  std::span<const std::uint32_t> candidate_rrbs(UeId u) const {
    return {cand_rrbs_.data() + cand_offsets_[u.idx()],
            cand_offsets_[u.idx() + 1] - cand_offsets_[u.idx()]};
  }

  /// Row-local slot of BS i in u's candidate row (candidates(u)[k] == i),
  /// or kNotCandidate. One search of the row, for callers that hold only
  /// a BS; every served pair is a candidate, since a ledger commit needs
  /// n(u,i) > 0 and the capacity to carry it.
  static constexpr std::size_t kNotCandidate = static_cast<std::size_t>(-1);
  std::size_t candidate_slot(UeId u, BsId i) const {
    const std::span<const BsId> cands = candidates(u);
    for (std::size_t k = 0; k < cands.size(); ++k)
      if (cands[k] == i) return k;
    return kNotCandidate;
  }

  /// n(u,i) read from u's candidate row by candidate_slot; 0 when i is not
  /// a candidate of u, so a ledger op on the pair fails its fit check.
  std::uint32_t candidate_rrbs(UeId u, BsId i) const {
    const std::size_t k = candidate_slot(u, i);
    return k == kNotCandidate ? 0 : cand_rrbs_[cand_offsets_[u.idx()] + k];
  }

  /// pair_profit(u, candidates(u)[k]) from the slot's price, bit for bit:
  /// the slot price is built with price()'s expression.
  double candidate_profit(UeId u, std::size_t k) const {
    const double margin =
        data_.pricing.m_k - cand_price_[cand_offsets_[u.idx()] + k] - data_.pricing.m_k_o;
    return static_cast<double>(ue(u).cru_demand) * margin;
  }

  /// Base of u's row in the flat candidate-slot index space [0,
  /// num_candidate_slots()). Runtimes keep per-slot side arrays (e.g. the
  /// decentralized broadcast view) indexed by candidate_offset(u) + k.
  std::size_t candidate_offset(UeId u) const { return cand_offsets_[u.idx()]; }

  /// Total candidate slots across all UEs.
  std::size_t num_candidate_slots() const { return candidates_.size(); }

  bool same_sp(UeId u, BsId i) const { return ue(u).sp == bs(i).sp; }

  /// p(i,u) of Eq. 9/10, for any in-radius pair: a search of u's link row.
  /// A loop that holds a candidate slot reads candidate_prices() instead.
  double price(UeId u, BsId i) const;

  /// The UE's SP's profit if u is served by i:
  /// c_j^u · (m_k − p(i,u) − m_k^o).  Always > 0 per Eq. 16. Reads the
  /// link like price(); candidate_profit is the slot-keyed form.
  double pair_profit(UeId u, BsId i) const;

 private:
  static const LinkStats kNoLink;  // all-zero, in_coverage = false

  ScenarioData data_;
  /// In-radius pairs only, CSR: row u is links_[link_offsets_[u] ..
  /// link_offsets_[u+1]) with BS ids (ascending) in the parallel link_cols_.
  std::vector<LinkStats> links_;
  std::vector<std::uint32_t> link_cols_;
  std::vector<std::size_t> link_offsets_;
  std::vector<BsId> candidates_;          // concatenated per-UE candidate lists
  std::vector<std::size_t> cand_offsets_; // |U| + 1 offsets into candidates_
  std::vector<double> cand_price_;        // p(i,u) per candidate slot
  std::vector<std::uint32_t> cand_rrbs_;  // n(u,i) per candidate slot

  void validate() const;
  void build_links();
};

/// Spatial region partition for the sharded decentralized runtime
/// (core/sharded.cpp). BSs are assigned to equal-width vertical strips
/// over the BS bounding box (the same geometry the link build's cell
/// index buckets by); each UE is then classified purely from the regions
/// of its candidate set — geometry decides where *BSs* live, coverage
/// decides where *UEs* belong:
///   * interior — every candidate BS falls in one region; the UE's whole
///     matching game is local to that region's shard;
///   * boundary — candidates straddle a region cut; the UE is withheld
///     from the shard pass and matched in the deterministic reconcile
///     pass against post-shard residual resources;
///   * cloud-only — no candidates at all; the cloud floor applies and no
///     shard needs to see the UE.
struct RegionPartition {
  /// ue_region value: candidates straddle a cut, reconcile pass owns it.
  static constexpr std::uint32_t kBoundary = 0xFFFFFFFFu;
  /// ue_region value: empty candidate set, cloud-forwarded directly.
  static constexpr std::uint32_t kCloudOnly = 0xFFFFFFFEu;

  std::size_t num_regions = 0;
  std::vector<std::uint32_t> bs_region;  ///< |B|: strip index per BS
  std::vector<std::uint32_t> ue_region;  ///< |U|: region, kBoundary, or kCloudOnly

  /// CSR membership lists, ids ascending within each region.
  std::vector<BsId> region_bss;
  std::vector<std::size_t> region_bs_offsets;  ///< num_regions + 1
  std::vector<UeId> region_ues;
  std::vector<std::size_t> region_ue_offsets;  ///< num_regions + 1

  std::vector<UeId> boundary_ues;  ///< ascending
  std::vector<UeId> cloud_ues;     ///< ascending

  std::span<const BsId> bss_in(std::size_t r) const {
    return {region_bss.data() + region_bs_offsets[r],
            region_bs_offsets[r + 1] - region_bs_offsets[r]};
  }
  std::span<const UeId> ues_in(std::size_t r) const {
    return {region_ues.data() + region_ue_offsets[r],
            region_ue_offsets[r + 1] - region_ue_offsets[r]};
  }
};

/// Partition a scenario into `num_regions` vertical strips (clamped to
/// [1, max(1, |B|)]). Deterministic: depends only on the scenario and the
/// region count. Degenerate inputs are legal — zero BSs puts every UE in
/// cloud_ues; co-located BSs collapse into strip 0.
RegionPartition partition_regions(const Scenario& scenario, std::size_t num_regions);

}  // namespace dmra
