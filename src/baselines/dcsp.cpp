#include "baselines/dcsp.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "mec/audit.hpp"
#include "mec/resources.hpp"

namespace dmra {

Allocation DcspAllocator::allocate(const Scenario& scenario) const {
  ResourceState state(scenario);
  Allocation alloc(scenario.num_ues());

  const std::size_t nu = scenario.num_ues();
  std::vector<std::vector<BsId>> b_u(nu);
  std::vector<bool> done(nu, false);  // matched or sent to cloud
  for (std::size_t ui = 0; ui < nu; ++ui) {
    const auto cands = scenario.candidates(UeId{static_cast<std::uint32_t>(ui)});
    b_u[ui].assign(cands.begin(), cands.end());
    if (b_u[ui].empty()) done[ui] = true;
  }

  auto occupancy = [&](UeId u, BsId i) {
    const ServiceId j = scenario.ue(u).service;
    const BaseStation& b = scenario.bs(i);
    const double cap = static_cast<double>(b.cru_capacity[j.idx()] + b.num_rrbs);
    const double rem =
        static_cast<double>(state.remaining_crus(i, j) + state.remaining_rrbs(i));
    return 1.0 - rem / cap;
  };

  for (std::size_t round = 0; round < nu + 1; ++round) {
    // UE proposals: lowest-occupancy feasible candidate, each filed under
    // its BS with the BS's admission key (f_u, n(u,i), u).
    std::map<BsId, std::vector<std::tuple<std::size_t, std::uint32_t, UeId>>> proposals;
    std::size_t sent = 0;
    for (std::size_t ui = 0; ui < nu; ++ui) {
      if (done[ui]) continue;
      const UeId u{static_cast<std::uint32_t>(ui)};
      std::optional<BsId> choice;
      while (!b_u[ui].empty() && !choice) {
        std::size_t best = 0;
        double best_occ = occupancy(u, b_u[ui][0]);
        for (std::size_t n = 1; n < b_u[ui].size(); ++n) {
          const double occ = occupancy(u, b_u[ui][n]);
          if (occ < best_occ || (occ == best_occ && b_u[ui][n] < b_u[ui][best])) {
            best = n;
            best_occ = occ;
          }
        }
        if (state.can_serve(u, b_u[ui][best])) {
          choice = b_u[ui][best];
        } else {
          b_u[ui].erase(b_u[ui].begin() + static_cast<std::ptrdiff_t>(best));
        }
      }
      if (!choice) {
        done[ui] = true;  // candidates exhausted → remote cloud
        continue;
      }
      proposals[*choice].emplace_back(scenario.coverage_count(u),
                                      scenario.candidate_rrbs(u, *choice), u);
      ++sent;
    }
    if (sent == 0) break;

    // BS acceptance: fewest covering BSs first, then least radio, then id;
    // accept greedily while resources remain.
    for (auto& [bs, ranked] : proposals) {
      std::sort(ranked.begin(), ranked.end());
      for (const auto& [f_u, n_rrbs, u] : ranked) {
        if (!state.can_serve(u, bs)) {
          std::erase(b_u[u.idx()], bs);  // rejected → move down the list
          continue;
        }
        state.commit(u, bs, n_rrbs);
        alloc.assign(u, bs);
        done[u.idx()] = true;
      }
    }
    if (DMRA_AUDIT_ACTIVE())
      audit::report_state_round("baselines/dcsp", round, scenario, alloc, state);
  }
  return alloc;
}

}  // namespace dmra
