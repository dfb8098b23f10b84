#include "mec/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/require.hpp"

namespace dmra {

const LinkStats Scenario::kNoLink{};

namespace {

/// Spatial index over BS positions. The BSs' bounding box is cut into
/// square cells no narrower than the coverage radius, so every BS within
/// the radius of a point lies in the point's 3×3 cell block; each cell
/// lists its BSs (a counting sort, x-major, so a column of the block is one
/// run). A wide, sparse box gets cells wider than the radius, which keeps
/// the table at O(|B|) cells and costs only distance checks.
class BsGrid {
 public:
  BsGrid(const std::vector<BaseStation>& bss, double radius_m) {
    Point hi = origin_;
    if (!bss.empty()) origin_ = hi = bss.front().position;
    for (const BaseStation& b : bss) {
      origin_ = {std::min(origin_.x, b.position.x), std::min(origin_.y, b.position.y)};
      hi = {std::max(hi.x, b.position.x), std::max(hi.y, b.position.y)};
    }
    // At most about 2·sqrt(|B|) cells a side. Capped at the largest double
    // so that an extent that overflows still divides to a number.
    const double side =
        std::max(1.0, std::ceil(2.0 * std::sqrt(static_cast<double>(bss.size()))));
    cell_m_ = std::min(std::max({radius_m, (hi.x - origin_.x) / side, (hi.y - origin_.y) / side}),
                       std::numeric_limits<double>::max());
    std::vector<std::pair<std::int64_t, std::int64_t>> at(bss.size());
    for (std::size_t i = 0; i < bss.size(); ++i) {
      at[i] = {axis(bss[i].position.x - origin_.x, side),
               axis(bss[i].position.y - origin_.y, side)};
      nx_ = std::max(nx_, at[i].first + 1);
      ny_ = std::max(ny_, at[i].second + 1);
    }
    const auto cell = [&](std::size_t i) {
      return static_cast<std::size_t>(at[i].first * ny_ + at[i].second);
    };
    // Counting sort by cell: count, turn the counts into cell ends, then
    // fill each cell from its end, which leaves every offset at its begin.
    cell_begin_.assign(static_cast<std::size_t>(nx_ * ny_) + 1, 0);
    for (std::size_t i = 0; i < bss.size(); ++i) ++cell_begin_[cell(i)];
    for (std::size_t c = 1; c < cell_begin_.size(); ++c) cell_begin_[c] += cell_begin_[c - 1];
    ids_.resize(bss.size());
    for (std::size_t i = 0; i < bss.size(); ++i)
      ids_[--cell_begin_[cell(i)]] = static_cast<std::uint32_t>(i);
  }

  /// The most BSs any 3×3 cell block holds, so a bound on every point's
  /// for_each_near visits: a point off the box's edge visits a subset of
  /// its edge cell's block. One pass over the cells, each column of a
  /// block one run of cell_begin_.
  std::size_t max_block() const {
    std::size_t most = 0;
    for (std::int64_t cx = 0; cx < nx_; ++cx)
      for (std::int64_t cy = 0; cy < ny_; ++cy) {
        const std::int64_t y0 = std::max<std::int64_t>(cy - 1, 0);
        const std::int64_t y1 = std::min(cy + 1, ny_ - 1);
        std::size_t n = 0;
        for (std::int64_t x = std::max<std::int64_t>(cx - 1, 0); x <= std::min(cx + 1, nx_ - 1);
             ++x)
          n += cell_begin_[static_cast<std::size_t>(x * ny_ + y1 + 1)] -
               cell_begin_[static_cast<std::size_t>(x * ny_ + y0)];
        most = std::max(most, n);
      }
    return most;
  }

  /// Calls visit(bs) for each BS in the 3×3 cell block around `p`, in no
  /// particular order.
  template <typename Visit>
  void for_each_near(const Point& p, Visit&& visit) const {
    const std::int64_t cx = axis(p.x - origin_.x, static_cast<double>(nx_));
    const std::int64_t cy = axis(p.y - origin_.y, static_cast<double>(ny_));
    const std::int64_t y0 = std::max<std::int64_t>(cy - 1, 0);
    const std::int64_t y1 = std::min(cy + 1, ny_ - 1);
    for (std::int64_t x = std::max<std::int64_t>(cx - 1, 0); x <= std::min(cx + 1, nx_ - 1); ++x)
      for (std::size_t k = cell_begin_[static_cast<std::size_t>(x * ny_ + y0)];
           k < cell_begin_[static_cast<std::size_t>(x * ny_ + y1 + 1)]; ++k)
        visit(ids_[k]);
  }

 private:
  /// The cell of an offset from the origin along one axis, clamped to
  /// [-1, last] in floating point so the cast is defined for any finite
  /// position: every negative offset lands in -1, and truncation is floor
  /// for the rest. A point past the box's edge cells shares their block,
  /// which only adds BSs the distance check drops.
  std::int64_t axis(double offset, double last) const {
    const double q = offset / cell_m_;
    return q < 0.0 ? -1 : static_cast<std::int64_t>(std::min(q, last));
  }

  Point origin_{0.0, 0.0};
  double cell_m_ = 0.0;
  std::int64_t nx_ = 0, ny_ = 0;         ///< cells spanned by the BSs, per axis
  std::vector<std::size_t> cell_begin_;  ///< per cell (x-major), into ids_
  std::vector<std::uint32_t> ids_;       ///< BS indices, by cell
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

  // Eq. 16 over the whole deployment: the dearest pair is cross-SP at the
  // coverage radius (beyond it no association is possible), at the highest
  // price multiplier (the price is monotone in it).
  double max_multiplier = 0.0;
  for (const BaseStation& b : data_.bss) {
    DMRA_REQUIRE_MSG(b.price_multiplier > 0.0, "price multiplier must be positive");
    max_multiplier = std::max(max_multiplier, b.price_multiplier);
  }
  DMRA_REQUIRE_MSG(data_.bss.empty() || pricing_valid_for(data_.pricing, data_.coverage_radius_m,
                                                          max_multiplier),
                   "pricing violates Eq. 16 within the coverage radius");
}

void Scenario::build_links() {
  const std::size_t nu = num_ues();
  const ChannelConfig& channel = data_.channel;
  const double bandwidth_hz = data_.ofdma.rrb_bandwidth_hz;
  // The link kernel: Eqs. 2–3 for one in-radius pair. The SINR
  // denominator depends on the config alone, so it is computed once here.
  const double denominator_mw = noise_plus_interference_mw(channel, bandwidth_hz);
  const auto link_of = [&](const UserEquipment& u, const BaseStation& b, double d) {
    LinkStats l;
    l.distance_m = d;
    l.sinr = sinr_from_loss(channel, link_loss_db(channel, d, u.id.value, b.id.value),
                            denominator_mw);
    l.rrb_rate_bps = rrb_rate_bps(bandwidth_hz, l.sinr);
    l.in_coverage = l.rrb_rate_bps > 0.0;
    if (l.in_coverage) l.n_rrbs = rrbs_needed(u.rate_demand_bps, l.rrb_rate_bps);
    return l;
  };
  // Candidate rule: coverage + service hosted + radio demand individually
  // satisfiable + enough capacity for the demand.
  const auto is_candidate = [](const UserEquipment& u, const BaseStation& b,
                               const LinkStats& l) {
    return l.in_coverage && b.hosts(u.service) && l.n_rrbs <= b.num_rrbs &&
           u.cru_demand <= b.cru_capacity[u.service.idx()];
  };

  // Per UE, examine only the BSs in its 3×3 cell block: O(U·k̄) link
  // computations and memory instead of O(U·B). Every in-radius pair gets
  // a row entry, in BS order; one the radio cannot serve at all (zero
  // rate) is stored out of coverage. No row is longer than the fullest
  // block, so the link arrays are reserved once at that bound; pages past
  // the last entry written are never touched.
  const BsGrid grid(data_.bss, data_.coverage_radius_m);
  const std::size_t row_bound = grid.max_block();
  link_offsets_.assign(nu + 1, 0);
  cand_offsets_.assign(nu + 1, 0);
  links_.reserve(nu * row_bound);
  link_cols_.reserve(nu * row_bound);
  std::vector<std::pair<std::uint32_t, double>> in_radius(row_bound);  // (BS, distance)
  std::size_t num_candidates = 0;
  for (std::size_t ui = 0; ui < nu; ++ui) {
    const UserEquipment& u = data_.ues[ui];
    std::size_t n = 0;
    grid.for_each_near(u.position, [&](std::uint32_t bi) {
      const double d = distance_m(u.position, data_.bss[bi].position);
      in_radius[n] = {bi, d};
      n += d <= data_.coverage_radius_m ? 1 : 0;
    });
    std::sort(in_radius.begin(), in_radius.begin() + static_cast<std::ptrdiff_t>(n));
    for (std::size_t k = 0; k < n; ++k) {
      const auto [bi, d] = in_radius[k];
      const BaseStation& b = data_.bss[bi];
      const LinkStats l = link_of(u, b, d);
      links_.push_back(l);
      link_cols_.push_back(bi);
      num_candidates += is_candidate(u, b, l) ? 1 : 0;
    }
    link_offsets_[ui + 1] = links_.size();
    cand_offsets_[ui + 1] = num_candidates;
  }

  // The candidate rows, allocated at their exact size and filled from the
  // link rows: the preference passes read these three arrays in parallel.
  candidates_.reserve(num_candidates);
  cand_price_.reserve(num_candidates);
  cand_rrbs_.reserve(num_candidates);
  for (std::size_t ui = 0; ui < nu; ++ui) {
    const UserEquipment& u = data_.ues[ui];
    for (std::size_t k = link_offsets_[ui]; k < link_offsets_[ui + 1]; ++k) {
      const BaseStation& b = data_.bss[link_cols_[k]];
      const LinkStats& l = links_[k];
      if (!is_candidate(u, b, l)) continue;
      candidates_.push_back(b.id);
      cand_price_.push_back(b.price_multiplier *
                            cru_price(data_.pricing, l.distance_m, u.sp == b.sp));
      cand_rrbs_.push_back(l.n_rrbs);
    }
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
