#include "baselines/exact.hpp"

#include <algorithm>

#include "mec/audit.hpp"
#include "mec/resources.hpp"
#include "util/require.hpp"

namespace dmra {

namespace {

struct SearchCtx {
  const Scenario& scenario;
  ResourceState state;
  Allocation current;
  Allocation best;
  double current_profit = 0.0;
  double best_profit = -1.0;
  /// upper_bound[u] = best possible profit from UEs u..end, capacities
  /// ignored; admissible bound for pruning.
  std::vector<double> suffix_bound;
  std::size_t incumbents = 0;  ///< audit round counter (improvements found)
};

void search(SearchCtx& ctx, std::size_t ui) {
  if (ui == ctx.scenario.num_ues()) {
    if (ctx.current_profit > ctx.best_profit) {
      ctx.best_profit = ctx.current_profit;
      ctx.best = ctx.current;
      // Auditing every search node would blow up the exponential walk;
      // incumbent improvements are rare and exercise the commit/release
      // pairing along the whole path from the root.
      if (DMRA_AUDIT_ACTIVE())
        audit::report_state_round("baselines/exact", ctx.incumbents++, ctx.scenario,
                                  ctx.current, ctx.state);
    }
    return;
  }
  if (ctx.current_profit + ctx.suffix_bound[ui] <= ctx.best_profit) return;  // prune

  const UeId u{static_cast<std::uint32_t>(ui)};
  // Try candidates best-profit-first so the incumbent improves quickly.
  std::vector<BsId> cands(ctx.scenario.candidates(u).begin(),
                          ctx.scenario.candidates(u).end());
  std::sort(cands.begin(), cands.end(), [&](BsId a, BsId b) {
    return ctx.scenario.pair_profit(u, a) > ctx.scenario.pair_profit(u, b);
  });
  for (BsId i : cands) {
    if (!ctx.state.can_serve(u, i)) continue;
    const double p = ctx.scenario.pair_profit(u, i);
    const std::uint32_t n_rrbs = ctx.scenario.candidate_rrbs(u, i);
    ctx.state.commit(u, i, n_rrbs);
    ctx.current.assign(u, i);
    ctx.current_profit += p;
    search(ctx, ui + 1);
    ctx.current_profit -= p;
    ctx.current.assign_cloud(u);
    ctx.state.release(u, i, n_rrbs);
  }
  // The cloud branch (u unserved) is always available.
  search(ctx, ui + 1);
}

}  // namespace

Allocation ExactAllocator::allocate(const Scenario& scenario) const {
  DMRA_REQUIRE_MSG(scenario.num_ues() <= max_ues_,
                   "exact solver limited to small instances; raise max_ues knowingly");

  SearchCtx ctx{scenario, ResourceState(scenario), Allocation(scenario.num_ues()),
                Allocation(scenario.num_ues()), /*current_profit=*/0.0,
                /*best_profit=*/-1.0, /*suffix_bound=*/{}};
  ctx.suffix_bound.assign(scenario.num_ues() + 1, 0.0);
  for (std::size_t ui = scenario.num_ues(); ui-- > 0;) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    double best_pair = 0.0;
    for (BsId i : scenario.candidates(u))
      best_pair = std::max(best_pair, scenario.pair_profit(u, i));
    ctx.suffix_bound[ui] = ctx.suffix_bound[ui + 1] + best_pair;
  }

  search(ctx, 0);
  return ctx.best_profit >= 0.0 ? ctx.best : Allocation(scenario.num_ues());
}

}  // namespace dmra
