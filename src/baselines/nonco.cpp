#include "baselines/nonco.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "mec/audit.hpp"
#include "mec/resources.hpp"

namespace dmra {

namespace {

/// A proposal as its BS ranks it: n(u,i), then the UE id.
using RankedProposal = std::pair<std::uint32_t, UeId>;

/// Max-SINR candidate of u among `cands` (ties toward the smaller id) and
/// its n(u,i), read from the same link. `cands` ascends and is a
/// subsequence of u's link row, so one forward walk finds every link.
std::optional<std::pair<BsId, std::uint32_t>> best_sinr(const Scenario& scenario, UeId u,
                                                        const std::vector<BsId>& cands) {
  if (cands.empty()) return std::nullopt;
  const Scenario::LinkRow row = scenario.link_row(u);
  std::size_t j = 0;
  BsId best{};
  const LinkStats* best_link = nullptr;
  for (const BsId c : cands) {
    while (row.bss[j] != c.value) ++j;
    const LinkStats& l = row.stats[j];
    if (best_link == nullptr || l.sinr > best_link->sinr) {
      best = c;
      best_link = &l;
    }
  }
  return std::pair{best, best_link->n_rrbs};
}

/// BS admission: least-RRB-hungry first, then id; admit while feasible.
/// Returns the UEs it rejected.
std::vector<UeId> admit(ResourceState& state, Allocation& alloc, BsId bs,
                        std::vector<RankedProposal> proposals) {
  std::sort(proposals.begin(), proposals.end());
  std::vector<UeId> rejected;
  for (const auto& [n_rrbs, u] : proposals) {
    if (!state.can_serve(u, bs)) {
      rejected.push_back(u);
      continue;
    }
    state.commit(u, bs, n_rrbs);
    alloc.assign(u, bs);
  }
  return rejected;
}

}  // namespace

Allocation NonCoAllocator::allocate(const Scenario& scenario) const {
  ResourceState state(scenario);
  Allocation alloc(scenario.num_ues());

  const std::size_t nu = scenario.num_ues();
  std::vector<std::vector<BsId>> b_u(nu);
  for (std::size_t ui = 0; ui < nu; ++ui) {
    const auto cands = scenario.candidates(UeId{static_cast<std::uint32_t>(ui)});
    b_u[ui].assign(cands.begin(), cands.end());
  }

  std::vector<UeId> pending;
  for (std::size_t ui = 0; ui < nu; ++ui) pending.push_back(UeId{static_cast<std::uint32_t>(ui)});

  // One round in one-shot mode; until exhaustion in iterative mode.
  for (std::size_t round = 0; round < nu + 1 && !pending.empty(); ++round) {
    std::map<BsId, std::vector<RankedProposal>> proposals;
    for (UeId u : pending) {
      const auto choice = best_sinr(scenario, u, b_u[u.idx()]);
      if (choice) proposals[choice->first].emplace_back(choice->second, u);
      // No candidate left → remote cloud (stays unassigned).
    }
    pending.clear();

    for (auto& [bs, ranked] : proposals) {
      for (UeId u : admit(state, alloc, bs, std::move(ranked))) {
        if (mode_ == Mode::kOneShot) continue;  // rejected → cloud, no retry
        std::erase(b_u[u.idx()], bs);
        pending.push_back(u);
      }
    }
    std::sort(pending.begin(), pending.end());
    if (DMRA_AUDIT_ACTIVE())
      audit::report_state_round("baselines/nonco", round, scenario, alloc, state);
  }
  return alloc;
}

}  // namespace dmra
