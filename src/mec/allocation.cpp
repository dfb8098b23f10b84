#include "mec/allocation.hpp"

#include "util/require.hpp"

namespace dmra {

namespace {
constexpr std::int64_t kCloud = -1;
}

Allocation::Allocation(std::size_t num_ues) : assignment_(num_ues, kCloud) {}

std::optional<BsId> Allocation::bs_of(UeId u) const {
  DMRA_REQUIRE(u.idx() < assignment_.size());
  const std::int64_t v = assignment_[u.idx()];
  if (v == kCloud) return std::nullopt;
  return BsId{static_cast<std::uint32_t>(v)};
}

void Allocation::assign(UeId u, BsId i) {
  DMRA_REQUIRE(u.idx() < assignment_.size());
  assignment_[u.idx()] = static_cast<std::int64_t>(i.value);
}

void Allocation::assign_cloud(UeId u) {
  DMRA_REQUIRE(u.idx() < assignment_.size());
  assignment_[u.idx()] = kCloud;
}

std::size_t Allocation::num_served() const {
  std::size_t n = 0;
  for (std::int64_t v : assignment_)
    if (v != kCloud) ++n;
  return n;
}

std::size_t Allocation::num_cloud() const { return assignment_.size() - num_served(); }

ProfitBreakdown compute_profit(const Scenario& scenario, const Allocation& alloc) {
  DMRA_REQUIRE(alloc.num_ues() == scenario.num_ues());
  ProfitBreakdown out;
  out.per_sp.assign(scenario.num_sps(), 0.0);
  const PricingConfig& pc = scenario.pricing();
  for (std::size_t ui = 0; ui < scenario.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    const auto bs = alloc.bs_of(u);
    if (!bs) continue;  // cloud: no MEC-layer profit (U_k excludes it)
    const UserEquipment& e = scenario.ue(u);
    const double crus = static_cast<double>(e.cru_demand);
    const double revenue = crus * pc.m_k;                      // Eq. 6 term
    const double payment = crus * scenario.price(u, *bs);      // Eq. 7 term
    const double other = crus * pc.m_k_o;                      // Eq. 8 term
    out.per_sp[e.sp.idx()] += revenue - payment - other;       // Eq. 5
    out.revenue += revenue;
    out.bs_payments += payment;
    out.other_costs += other;
  }
  for (double w : out.per_sp) out.total += w;
  return out;
}

double total_profit(const Scenario& scenario, const Allocation& alloc) {
  return compute_profit(scenario, alloc).total;
}

double total_profit_over(const Scenario& scenario, const Allocation& alloc,
                         std::span<const UeId> ues) {
  DMRA_REQUIRE(alloc.num_ues() == scenario.num_ues());
  std::vector<double> per_sp(scenario.num_sps(), 0.0);
  const PricingConfig& pc = scenario.pricing();
  for (std::size_t n = 0; n < ues.size(); ++n) {
    const UeId u = ues[n];
    DMRA_REQUIRE_MSG(n == 0 || ues[n - 1] < u, "ues must be strictly ascending");
    const auto bs = alloc.bs_of(u);
    if (!bs) continue;
    const std::size_t k = scenario.candidate_slot(u, *bs);
    DMRA_REQUIRE_MSG(k != Scenario::kNotCandidate, "a served pair must be a candidate");
    // compute_profit's expression, term for term, so the bits agree.
    const UserEquipment& e = scenario.ue(u);
    const double crus = static_cast<double>(e.cru_demand);
    const double revenue = crus * pc.m_k;
    const double payment = crus * scenario.candidate_prices(u)[k];
    const double other = crus * pc.m_k_o;
    per_sp[e.sp.idx()] += revenue - payment - other;
  }
  double total = 0.0;
  for (double w : per_sp) total += w;
  return total;
}

double forwarded_traffic_bps(const Scenario& scenario, const Allocation& alloc) {
  DMRA_REQUIRE(alloc.num_ues() == scenario.num_ues());
  double sum = 0.0;
  for (std::size_t ui = 0; ui < scenario.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    if (alloc.is_cloud(u)) sum += scenario.ue(u).rate_demand_bps;
  }
  return sum;
}

double same_sp_ratio(const Scenario& scenario, const Allocation& alloc) {
  std::size_t served = 0;
  std::size_t same = 0;
  for (std::size_t ui = 0; ui < scenario.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    const auto bs = alloc.bs_of(u);
    if (!bs) continue;
    ++served;
    if (scenario.same_sp(u, *bs)) ++same;
  }
  if (served == 0) return 0.0;
  return static_cast<double>(same) / static_cast<double>(served);
}

}  // namespace dmra
