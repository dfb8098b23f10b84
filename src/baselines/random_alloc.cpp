#include "baselines/random_alloc.hpp"

#include "mec/audit.hpp"
#include "mec/resources.hpp"
#include "util/rng.hpp"

namespace dmra {

Allocation RandomAllocator::allocate(const Scenario& scenario) const {
  Rng rng("random-alloc", seed_);
  ResourceState state(scenario);
  Allocation alloc(scenario.num_ues());

  std::vector<UeId> order;
  order.reserve(scenario.num_ues());
  for (std::size_t ui = 0; ui < scenario.num_ues(); ++ui)
    order.push_back(UeId{static_cast<std::uint32_t>(ui)});
  rng.shuffle(order);

  for (UeId u : order) {
    std::vector<BsId> feasible;
    for (BsId i : scenario.candidates(u))
      if (state.can_serve(u, i)) feasible.push_back(i);
    if (feasible.empty()) continue;  // → cloud
    const BsId pick = feasible[rng.index(feasible.size())];
    state.commit(u, pick, scenario.candidate_rrbs(u, pick));
    alloc.assign(u, pick);
  }
  if (DMRA_AUDIT_ACTIVE())
    audit::report_state_round("baselines/random", 0, scenario, alloc, state);
  return alloc;
}

}  // namespace dmra
