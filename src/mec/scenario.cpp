#include "mec/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/require.hpp"

namespace dmra {

const LinkStats Scenario::kNoLink{};

namespace {

/// Dense link storage caps out at this many (UE, BS) entries; larger
/// deployments switch to the spatial-hash + CSR build (LinkBuild::kAuto).
/// 2^16 entries ≈ 2.6 MB keeps every paper-scale scenario on the O(1)
/// dense path while million-user deployments stay O(U·k̄) in memory.
constexpr std::size_t kDenseLinkThreshold = std::size_t{1} << 16;

/// Spatial hash over BS positions with cell size = coverage radius: every
/// BS within the radius of a point lies in the point's 3×3 cell block.
class BsGrid {
 public:
  BsGrid(const std::vector<BaseStation>& bss, double cell_m) : cell_m_(cell_m) {
    for (std::uint32_t i = 0; i < bss.size(); ++i)
      cells_[key(cell(bss[i].position.x), cell(bss[i].position.y))].push_back(i);
  }

  /// BS indices in the 3×3 block around `p`, ascending (callers rely on
  /// CSR rows being sorted by BS id).
  void neighbors(const Point& p, std::vector<std::uint32_t>& out) const {
    out.clear();
    const std::int64_t cx = cell(p.x), cy = cell(p.y);
    for (std::int64_t dx = -1; dx <= 1; ++dx)
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        const auto it = cells_.find(key(cx + dx, cy + dy));
        if (it == cells_.end()) continue;
        out.insert(out.end(), it->second.begin(), it->second.end());
      }
    std::sort(out.begin(), out.end());
  }

 private:
  /// Clamped in floating point so the cast, and `cell + 1` in
  /// neighbors(), stay in range for any finite position; positions past
  /// the clamp share edge cells, which only costs distance checks.
  std::int64_t cell(double v) const {
    constexpr double kMaxCell = 4294967296.0;  // 2^32
    return static_cast<std::int64_t>(std::clamp(std::floor(v / cell_m_), -kMaxCell, kMaxCell));
  }
  static std::uint64_t key(std::int64_t cx, std::int64_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  }

  double cell_m_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> cells_;
};

}  // namespace

Scenario::Scenario(ScenarioData data) : data_(std::move(data)) {
  validate();
  build_links();
}

void Scenario::validate() const {
  DMRA_REQUIRE_MSG(!data_.sps.empty(), "scenario needs at least one SP");
  // Zero BSs (and zero UEs) are legal degenerate instances: a churn
  // timeline with no arrivals, or a region with no deployment yet. Every
  // UE is then cloud-forwarded; metrics and allocators must cope.
  DMRA_REQUIRE_MSG(data_.num_services > 0, "scenario needs at least one service");
  DMRA_REQUIRE(data_.coverage_radius_m > 0.0);

  for (std::size_t k = 0; k < data_.sps.size(); ++k)
    DMRA_REQUIRE_MSG(data_.sps[k].id.idx() == k, "SP ids must be contiguous 0..n-1");

  for (std::size_t i = 0; i < data_.bss.size(); ++i) {
    const BaseStation& b = data_.bss[i];
    DMRA_REQUIRE_MSG(b.id.idx() == i, "BS ids must be contiguous 0..n-1");
    DMRA_REQUIRE_MSG(b.sp.idx() < data_.sps.size(), "BS references unknown SP");
    DMRA_REQUIRE_MSG(b.cru_capacity.size() == data_.num_services,
                     "BS CRU capacity vector must cover every service");
    DMRA_REQUIRE_MSG(std::isfinite(b.position.x) && std::isfinite(b.position.y),
                     "BS position must be finite");
    DMRA_REQUIRE_MSG(b.num_rrbs < kUnservableRrbs, "BS RRB count out of range");
    // num_rrbs == 0 is allowed: a radio-exhausted BS (e.g. in the residual
    // scenario a serving admission rule sees) simply can never be a
    // candidate.
  }

  for (std::size_t u = 0; u < data_.ues.size(); ++u) {
    const UserEquipment& e = data_.ues[u];
    DMRA_REQUIRE_MSG(e.id.idx() == u, "UE ids must be contiguous 0..n-1");
    DMRA_REQUIRE_MSG(std::isfinite(e.position.x) && std::isfinite(e.position.y),
                     "UE position must be finite");
    DMRA_REQUIRE_MSG(e.sp.idx() < data_.sps.size(), "UE references unknown SP");
    DMRA_REQUIRE_MSG(e.service.idx() < data_.num_services, "UE requests unknown service");
    DMRA_REQUIRE_MSG(e.cru_demand > 0, "UE CRU demand must be positive");
    DMRA_REQUIRE_MSG(e.rate_demand_bps > 0.0, "UE rate demand must be positive");
  }

  // Eq. 16 over the whole deployment: the farthest profitable pair is at
  // the coverage radius (beyond it no association is possible), priced at
  // each BS's own multiplier.
  for (const BaseStation& b : data_.bss) {
    DMRA_REQUIRE_MSG(b.price_multiplier > 0.0, "price multiplier must be positive");
    const double worst_price =
        b.price_multiplier *
        cru_price(data_.pricing, data_.coverage_radius_m, /*same_sp=*/false);
    DMRA_REQUIRE_MSG(data_.pricing.m_k > worst_price + data_.pricing.m_k_o,
                     "pricing violates Eq. 16 within the coverage radius");
  }
}

void Scenario::build_links() {
  const std::size_t nu = num_ues();
  const std::size_t nb = num_bss();
  dense_links_ = data_.link_build == LinkBuild::kDense ||
                 (data_.link_build == LinkBuild::kAuto && nu * nb <= kDenseLinkThreshold);
  cand_offsets_.assign(nu + 1, 0);
  candidates_.clear();
  cand_price_.clear();
  cand_rrbs_.clear();
  links_.clear();
  link_cols_.clear();
  link_offsets_.clear();

  // Shared per-pair computation: only ever invoked for in-radius pairs,
  // so the dense and sparse builds produce bit-identical stats. Pairs the
  // radio cannot serve at all (zero rate) are kept but demoted to
  // out-of-coverage, matching the historical dense semantics.
  const auto compute_link = [&](const UserEquipment& u, const BaseStation& b,
                                double distance) {
    LinkStats l;
    l.distance_m = distance;
    l.in_coverage = true;
    l.sinr = sinr(data_.channel, l.distance_m, data_.ofdma.rrb_bandwidth_hz, u.id.value,
                  b.id.value);
    l.rrb_rate_bps = rrb_rate_bps(data_.ofdma.rrb_bandwidth_hz, l.sinr);
    if (l.rrb_rate_bps > 0.0) {
      l.n_rrbs = rrbs_needed(u.rate_demand_bps, l.rrb_rate_bps);
    } else {
      l.n_rrbs = 0;
      l.in_coverage = false;
    }
    return l;
  };
  // Candidate rule: coverage + service hosted + radio demand individually
  // satisfiable + enough capacity for the demand. Stored flat to keep
  // Scenario cheap to copy around.
  const auto is_candidate = [](const UserEquipment& u, const BaseStation& b,
                               const LinkStats& l) {
    return l.in_coverage && b.hosts(u.service) && l.n_rrbs <= b.num_rrbs &&
           u.cru_demand <= b.cru_capacity[u.service.idx()];
  };

  if (dense_links_) {
    links_.resize(nu * nb);
    for (std::size_t ui = 0; ui < nu; ++ui) {
      const UserEquipment& u = data_.ues[ui];
      for (std::size_t bi = 0; bi < nb; ++bi) {
        const BaseStation& b = data_.bss[bi];
        const double d = distance_m(u.position, b.position);
        if (d > data_.coverage_radius_m) continue;  // stays all-zero
        const LinkStats l = compute_link(u, b, d);
        links_[ui * nb + bi] = l;
        if (is_candidate(u, b, l)) {
          candidates_.push_back(BsId{static_cast<std::uint32_t>(bi)});
          cand_price_.push_back(b.price_multiplier *
                                cru_price(data_.pricing, l.distance_m, u.sp == b.sp));
          cand_rrbs_.push_back(l.n_rrbs);
        }
      }
      cand_offsets_[ui + 1] = candidates_.size();
    }
    return;
  }

  // Sparse build: hash BS positions into coverage-radius cells, then per
  // UE examine only the 3×3 block — O(U·k̄) link computations and memory
  // instead of O(U·B).
  const BsGrid grid(data_.bss, data_.coverage_radius_m);
  link_offsets_.assign(nu + 1, 0);
  std::vector<std::uint32_t> nearby;
  for (std::size_t ui = 0; ui < nu; ++ui) {
    const UserEquipment& u = data_.ues[ui];
    grid.neighbors(u.position, nearby);
    for (const std::uint32_t bi : nearby) {
      const BaseStation& b = data_.bss[bi];
      const double d = distance_m(u.position, b.position);
      if (d > data_.coverage_radius_m) continue;
      const LinkStats l = compute_link(u, b, d);
      links_.push_back(l);
      link_cols_.push_back(bi);
      if (is_candidate(u, b, l)) {
        candidates_.push_back(BsId{bi});
        cand_price_.push_back(b.price_multiplier *
                              cru_price(data_.pricing, l.distance_m, u.sp == b.sp));
        cand_rrbs_.push_back(l.n_rrbs);
      }
    }
    link_offsets_[ui + 1] = links_.size();
    cand_offsets_[ui + 1] = candidates_.size();
  }
}

double Scenario::price(UeId u, BsId i) const {
  return bs(i).price_multiplier *
         cru_price(data_.pricing, link(u, i).distance_m, same_sp(u, i));
}

double Scenario::pair_profit(UeId u, BsId i) const {
  const double margin = data_.pricing.m_k - price(u, i) - data_.pricing.m_k_o;
  return static_cast<double>(ue(u).cru_demand) * margin;
}

RegionPartition partition_regions(const Scenario& scenario, std::size_t num_regions) {
  const std::size_t nb = scenario.num_bss();
  const std::size_t nu = scenario.num_ues();
  RegionPartition part;
  part.num_regions = std::clamp<std::size_t>(num_regions, 1, std::max<std::size_t>(1, nb));
  const std::size_t nr = part.num_regions;

  // BS strips: equal-width x intervals over the BS bounding box. The last
  // strip is closed on the right so max_x lands in region nr - 1.
  part.bs_region.resize(nb);
  if (nb > 0) {
    double min_x = scenario.bs(BsId{0}).position.x;
    double max_x = min_x;
    for (const BaseStation& b : scenario.bss()) {
      min_x = std::min(min_x, b.position.x);
      max_x = std::max(max_x, b.position.x);
    }
    const double width = (max_x - min_x) / static_cast<double>(nr);
    for (std::size_t bi = 0; bi < nb; ++bi) {
      std::size_t r = 0;
      if (width > 0.0) {
        const double rel = (scenario.bs(BsId{static_cast<std::uint32_t>(bi)}).position.x -
                            min_x) / width;
        r = std::min(static_cast<std::size_t>(rel), nr - 1);
      }
      part.bs_region[bi] = static_cast<std::uint32_t>(r);
    }
  }

  // UE classification from candidate-set regions alone: a UE belongs to a
  // region iff every BS it could ever propose to lives there.
  part.ue_region.resize(nu);
  for (std::size_t ui = 0; ui < nu; ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    const auto cands = scenario.candidates(u);
    if (cands.empty()) {
      part.ue_region[ui] = RegionPartition::kCloudOnly;
      part.cloud_ues.push_back(u);
      continue;
    }
    const std::uint32_t first = part.bs_region[cands[0].idx()];
    bool interior = true;
    for (const BsId i : cands)
      if (part.bs_region[i.idx()] != first) {
        interior = false;
        break;
      }
    if (interior) {
      part.ue_region[ui] = first;
    } else {
      part.ue_region[ui] = RegionPartition::kBoundary;
      part.boundary_ues.push_back(u);
    }
  }

  // CSR membership lists: count, prefix-sum, fill. Ids ascend within each
  // region because the fill walks ids in order.
  part.region_bs_offsets.assign(nr + 1, 0);
  for (std::size_t bi = 0; bi < nb; ++bi) part.region_bs_offsets[part.bs_region[bi] + 1]++;
  for (std::size_t r = 0; r < nr; ++r)
    part.region_bs_offsets[r + 1] += part.region_bs_offsets[r];
  part.region_bss.resize(nb);
  {
    std::vector<std::size_t> cursor(part.region_bs_offsets.begin(),
                                    part.region_bs_offsets.end() - 1);
    for (std::size_t bi = 0; bi < nb; ++bi)
      part.region_bss[cursor[part.bs_region[bi]]++] = BsId{static_cast<std::uint32_t>(bi)};
  }

  part.region_ue_offsets.assign(nr + 1, 0);
  std::size_t interior_ues = 0;
  for (std::size_t ui = 0; ui < nu; ++ui)
    if (part.ue_region[ui] < nr) {
      part.region_ue_offsets[part.ue_region[ui] + 1]++;
      ++interior_ues;
    }
  for (std::size_t r = 0; r < nr; ++r)
    part.region_ue_offsets[r + 1] += part.region_ue_offsets[r];
  part.region_ues.resize(interior_ues);
  {
    std::vector<std::size_t> cursor(part.region_ue_offsets.begin(),
                                    part.region_ue_offsets.end() - 1);
    for (std::size_t ui = 0; ui < nu; ++ui)
      if (part.ue_region[ui] < nr)
        part.region_ues[cursor[part.ue_region[ui]]++] = UeId{static_cast<std::uint32_t>(ui)};
  }
  return part;
}

}  // namespace dmra
