#include "mec/resources.hpp"

#include <algorithm>

#include "mec/allocation.hpp"
#include "util/require.hpp"

namespace dmra {

ResourceState::ResourceState(const Scenario& scenario) : scenario_(&scenario) {
  const std::size_t nb = scenario.num_bss();
  const std::size_t ns = scenario.num_services();
  crus_.resize(nb * ns);
  rrbs_.resize(nb);
  for (std::size_t i = 0; i < nb; ++i) {
    const BaseStation& b = scenario.bs(BsId{static_cast<std::uint32_t>(i)});
    rrbs_[i] = b.num_rrbs;
    for (std::size_t j = 0; j < ns; ++j) crus_[i * ns + j] = b.cru_capacity[j];
  }
}

bool ResourceState::can_serve(UeId u, BsId i) const {
  // A pair that is not a candidate reads n = 0 and never fits.
  return fits(scenario_->ue(u), i, scenario_->candidate_rrbs(u, i));
}

void ResourceState::commit(UeId u, BsId i, std::uint32_t n_rrbs) {
  const UserEquipment& e = scenario_->ue(u);
  DMRA_REQUIRE_MSG(fits(e, i, n_rrbs), "commit on a BS that cannot serve the UE");
  crus_[cru_index(i, e.service)] -= e.cru_demand;
  rrbs_[i.idx()] -= n_rrbs;
}

void ResourceState::release(UeId u, BsId i, std::uint32_t n_rrbs) {
  const UserEquipment& e = scenario_->ue(u);
  const BaseStation& b = scenario_->bs(i);
  const std::uint32_t next_cru = crus_[cru_index(i, e.service)] + e.cru_demand;
  const std::uint32_t next_rrb = rrbs_[i.idx()] + n_rrbs;
  DMRA_REQUIRE_MSG(next_cru <= b.cru_capacity[e.service.idx()],
                   "release exceeds the BS's CRU capacity (unpaired release?)");
  DMRA_REQUIRE_MSG(next_rrb <= b.num_rrbs,
                   "release exceeds the BS's RRB budget (unpaired release?)");
  crus_[cru_index(i, e.service)] = next_cru;
  rrbs_[i.idx()] = next_rrb;
}

void ResourceState::clamp_remaining(BsId i, const std::vector<std::uint32_t>& cru_caps,
                                    std::uint32_t rrb_cap) {
  const std::size_t ns = scenario_->num_services();
  DMRA_REQUIRE_MSG(cru_caps.size() == ns, "clamp_remaining needs one CRU cap per service");
  for (std::size_t j = 0; j < ns; ++j) {
    std::uint32_t& c = crus_[i.idx() * ns + j];
    c = std::min(c, cru_caps[j]);
  }
  rrbs_[i.idx()] = std::min(rrbs_[i.idx()], rrb_cap);
}

void ResourceState::restore_capacity(BsId i) {
  const std::size_t ns = scenario_->num_services();
  const BaseStation& b = scenario_->bs(i);
  for (std::size_t j = 0; j < ns; ++j) crus_[i.idx() * ns + j] = b.cru_capacity[j];
  rrbs_[i.idx()] = b.num_rrbs;
}

void ResourceState::recount_remaining(BsId i, const Allocation& alloc) {
  restore_capacity(i);
  for (std::size_t ui = 0; ui < alloc.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    const auto bs = alloc.bs_of(u);
    if (!bs || *bs != i) continue;
    const UserEquipment& e = scenario_->ue(u);
    const std::uint32_t demand_rrbs = scenario_->candidate_rrbs(u, i);
    DMRA_REQUIRE_MSG(demand_rrbs != 0 && crus_[cru_index(i, e.service)] >= e.cru_demand &&
                         rrbs_[i.idx()] >= demand_rrbs,
                     "recount_remaining: allocation overcommits the BS or assigns a "
                     "non-candidate");
    crus_[cru_index(i, e.service)] -= e.cru_demand;
    rrbs_[i.idx()] -= demand_rrbs;
  }
}

std::uint32_t ResourceState::remaining_for_preference(BsId i, ServiceId j) const {
  return remaining_crus(i, j) + remaining_rrbs(i);
}

}  // namespace dmra
