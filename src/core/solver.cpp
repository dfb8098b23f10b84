#include "core/solver.hpp"

#include <span>
#include <utility>

#include "mec/audit.hpp"
#include "mec/resources.hpp"
#include "obs/recorder.hpp"
#include "util/log.hpp"
#include "util/require.hpp"

namespace dmra {

namespace {

/// Traced runs only: total remaining CRU/RRB capacity across the ledger,
/// reported per round as headroom gauges in the round CSV.
void sum_headroom(const Scenario& scenario, const ResourceState& state,
                  std::uint64_t& crus, std::uint64_t& rrbs) {
  crus = 0;
  rrbs = 0;
  for (const BaseStation& b : scenario.bss()) {
    for (std::size_t j = 0; j < scenario.num_services(); ++j)
      crus += state.remaining_crus(b.id, ServiceId{static_cast<std::uint32_t>(j)});
    rrbs += state.remaining_rrbs(b.id);
  }
}

}  // namespace

DmraResult solve_dmra_partial(const Scenario& scenario, const DmraConfig& config,
                              ResourceState& state, Allocation& allocation,
                              std::span<const UeId> proposers, LiveCandidates* rows) {
  DMRA_REQUIRE(config.rho >= 0.0);
  DMRA_REQUIRE(allocation.num_ues() == scenario.num_ues());
  for (std::size_t k = 0; k < proposers.size(); ++k) {
    DMRA_REQUIRE_MSG(proposers[k].idx() < scenario.num_ues(), "proposer outside the scenario");
    DMRA_REQUIRE_MSG(k == 0 || proposers[k - 1] < proposers[k],
                     "proposers must be strictly ascending");
    DMRA_REQUIRE_MSG(allocation.is_cloud(proposers[k]), "proposer already holds a BS");
  }

  DmraResult result;

  // Tracing: a single pointer test when disabled. traced_profit seeds from
  // the carried-over allocation so partial re-solves report the true
  // cumulative figure, not just this call's delta.
  obs::TraceRecorder* const rec = obs::recorder();
  double traced_profit = 0.0;
  if (rec != nullptr) {
    rec->take_tally();  // drop any tally left by a previous producer
    traced_profit = total_profit(scenario, allocation);
  }

  // Only proposers get a live row. `seeking` holds the proposers still in
  // the matching, ascending: a UE leaves it for good once a BS accepts it
  // or its B_u runs dry (remote cloud), so each round walks no one else.
  LiveCandidates own_rows;
  LiveCandidates& b_u = rows != nullptr ? *rows : own_rows;
  b_u.build(scenario, proposers);
  std::vector<UeId> seeking;
  seeking.assign(proposers.begin(), proposers.end());  // only ever shrinks

  // Every round with proposals matches at least one proposer.
  const std::size_t np = proposers.size();
  const std::size_t round_limit = np + 1;

  // Per-round scratch, hoisted out of the round loop so every buffer
  // settles at its high-water capacity: the flat proposal log (UE order),
  // its counting-sort grouping by BS — scanning groups in BS index order
  // reproduces the former std::map<BsId, ...> iteration order exactly —
  // and the bs_select workspace.
  const std::size_t nb = scenario.num_bss();
  const std::size_t ns = scenario.num_services();
  std::vector<std::uint32_t> prop_bs;      // proposal m went to this BS
  std::vector<ProposalInfo> prop_info;     // …carrying this (ue, f_u, n)
  std::vector<ProposalInfo> grouped;       // proposals regrouped by BS
  std::vector<std::uint32_t> group_count;  // per-BS counts, then cursors
  std::vector<std::size_t> group_begin;    // per-BS group offsets (nb + 1)
  prop_bs.reserve(np);
  prop_info.reserve(np);
  grouped.reserve(np);
  group_count.reserve(nb);
  group_begin.reserve(nb + 1);
  BsLocalResources local;
  local.crus.resize(ns);
  BsSelectWorkspace ws;
  ws.reserve(ns, np);

  bool converged = false;
  for (std::size_t round = 0; round < round_limit; ++round) {
    if (rec != nullptr) rec->set_round(round);
    // --- UE proposal phase: everything is evaluated against the state at
    // the start of the round, exactly like the broadcast view a
    // decentralized UE would hold.
    // dmra::hotpath begin(solver-propose)
    prop_bs.clear();
    prop_info.clear();
    std::size_t still = 0;  // seeking, compacted in place
    for (const UeId u : seeking) {
      if (!allocation.is_cloud(u)) continue;  // accepted last round
      const ServiceId j = scenario.ue(u).service;
      const auto view = [&state, j](std::size_t, BsId i) {
        return std::pair<std::uint32_t, std::uint32_t>{state.remaining_crus(i, j),
                                                       state.remaining_rrbs(i)};
      };
      const Proposal p = propose_soa(scenario, b_u, u, config.rho, view);
      if (!p.bs) continue;  // Alg. 1: B_u exhausted → remote cloud
      seeking[still++] = u;
      prop_bs.push_back(p.bs->value);
      prop_info.push_back(ProposalInfo{u, p.f_u, p.n_rrbs});
      if (rec != nullptr) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::kProposal;
        e.ue = u.value;
        e.bs = p.bs->value;
        e.service = j.value;
        e.value = p.f_u;
        rec->record(e);
      }
    }
    seeking.resize(still);
    const std::size_t sent_this_round = still;
    // dmra::hotpath end(solver-propose)
    if (sent_this_round == 0) {
      converged = true;
      break;
    }
    result.proposals_sent += sent_this_round;
    ++result.rounds;

    // --- BS acceptance phase: each BS decides from its own local
    // resources only, then commits.
    // dmra::hotpath begin(solver-accept)
    // Stable counting sort of the proposal log by BS: groups in BS index
    // order, within-group in UE (send) order — the append order the
    // per-BS bucket vectors used to produce.
    group_count.assign(nb, 0);
    for (const std::uint32_t b : prop_bs) ++group_count[b];
    group_begin.assign(nb + 1, 0);
    for (std::size_t bi = 0; bi < nb; ++bi)
      group_begin[bi + 1] = group_begin[bi] + group_count[bi];
    if (grouped.size() < prop_info.size()) grouped.resize(prop_info.size());
    for (std::size_t bi = 0; bi < nb; ++bi)
      group_count[bi] = static_cast<std::uint32_t>(group_begin[bi]);
    for (std::size_t m = 0; m < prop_info.size(); ++m)
      grouped[group_count[prop_bs[m]]++] = prop_info[m];

    std::size_t accepted_this_round = 0;
    for (std::size_t bi = 0; bi < nb; ++bi) {
      const std::span<const ProposalInfo> props{grouped.data() + group_begin[bi],
                                                group_begin[bi + 1] - group_begin[bi]};
      if (props.empty()) continue;
      const BsId bs{static_cast<std::uint32_t>(bi)};
      for (std::size_t j = 0; j < ns; ++j)
        local.crus[j] = state.remaining_crus(bs, ServiceId{static_cast<std::uint32_t>(j)});
      local.rrbs = state.remaining_rrbs(bs);

      for (const ProposalInfo& p : bs_select(scenario, bs, props, local, ws, config)) {
        state.commit(p.ue, bs, p.n_rrbs);
        allocation.assign(p.ue, bs);
        ++accepted_this_round;
        if (rec != nullptr)
          traced_profit += scenario.candidate_profit(p.ue, scenario.candidate_slot(p.ue, bs));
      }
    }
    // dmra::hotpath end(solver-accept)
    result.rejections += sent_this_round - accepted_this_round;
    if (DMRA_AUDIT_ACTIVE())
      audit::report_state_round("core/solver", result.rounds - 1, scenario, allocation,
                                state);
    if (rec != nullptr) {
      const obs::EventTally tally = rec->take_tally();
      obs::RoundRow row;
      row.source = "core/solver";
      row.round = result.rounds - 1;
      row.proposals = tally.proposals;
      row.accepts = tally.accepts;
      row.rejects = tally.rejects;
      row.trim_evictions = tally.trim_evictions;
      row.broadcasts = tally.broadcasts;
      row.messages = 0;  // direct solver: no bus
      row.unmatched_ues = sent_this_round - accepted_this_round;  // proposed, not accepted
      row.cumulative_profit = traced_profit;
      sum_headroom(scenario, state, row.cru_headroom, row.rrb_headroom);
      rec->finish_round(row);
    }
    DMRA_DEBUG("dmra round " << result.rounds << ": " << sent_this_round << " proposals, "
                             << accepted_this_round << " accepted");
  }

  if (rec != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kTermination;
    e.flag = converged;
    e.value = result.rounds;
    e.label = "core/solver";
    rec->record(e);
  }
  return result;
}

DmraResult solve_dmra(const Scenario& scenario, const DmraConfig& config) {
  ResourceState state(scenario);
  Allocation allocation(scenario.num_ues());
  std::vector<UeId> everyone(scenario.num_ues());
  for (std::size_t ui = 0; ui < everyone.size(); ++ui)
    everyone[ui] = UeId{static_cast<std::uint32_t>(ui)};
  DmraResult result = solve_dmra_partial(scenario, config, state, allocation, everyone);
  result.allocation = std::move(allocation);
  return result;
}

}  // namespace dmra
