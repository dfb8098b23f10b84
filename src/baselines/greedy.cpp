#include "baselines/greedy.hpp"

#include <algorithm>
#include <tuple>

#include "mec/audit.hpp"
#include "mec/resources.hpp"

namespace dmra {

Allocation GreedyProfitAllocator::allocate(const Scenario& scenario) const {
  struct Pair {
    UeId u;
    BsId i;
    double profit;
  };
  std::vector<Pair> pairs;
  for (std::size_t ui = 0; ui < scenario.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    for (BsId i : scenario.candidates(u)) pairs.push_back({u, i, scenario.pair_profit(u, i)});
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    return std::make_tuple(-a.profit, a.u.value, a.i.value) <
           std::make_tuple(-b.profit, b.u.value, b.i.value);
  });

  ResourceState state(scenario);
  Allocation alloc(scenario.num_ues());
  std::vector<bool> assigned(scenario.num_ues(), false);
  for (const Pair& p : pairs) {
    if (assigned[p.u.idx()] || !state.can_serve(p.u, p.i)) continue;
    state.commit(p.u, p.i, scenario.candidate_rrbs(p.u, p.i));
    alloc.assign(p.u, p.i);
    assigned[p.u.idx()] = true;
  }
  if (DMRA_AUDIT_ACTIVE())
    audit::report_state_round("baselines/greedy", 0, scenario, alloc, state);
  return alloc;
}

}  // namespace dmra
