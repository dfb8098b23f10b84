#include "core/preference.hpp"

#include <algorithm>
#include <limits>

#include "obs/recorder.hpp"
#include "util/require.hpp"

namespace dmra {

void LiveCandidates::build(const Scenario& scenario, std::span<const UeId> ues) {
  scenario_ = &scenario;
  if (len_.size() == scenario.num_ues() && slots_.size() == scenario.num_candidate_slots()) {
    for (const UeId u : built_) len_[u.idx()] = 0;
  } else {
    len_.assign(scenario.num_ues(), 0);
    slots_.resize(scenario.num_candidate_slots());
  }
  built_.assign(ues.begin(), ues.end());
  for (const UeId u : ues) {
    const std::size_t base = scenario.candidate_offset(u);
    const std::size_t row = scenario.candidates(u).size();
    len_[u.idx()] = row;
    for (std::size_t k = 0; k < row; ++k)
      slots_[base + k] = static_cast<std::uint32_t>(k);
  }
}

namespace {

BsPrefKey pref_key(const Scenario& scenario, BsId i, const ProposalInfo& p,
                   const DmraConfig& config) {
  const UserEquipment& e = scenario.ue(p.ue);
  const std::uint32_t footprint = p.n_rrbs + e.cru_demand;
  return BsPrefKey{config.prefer_same_sp ? !scenario.same_sp(p.ue, i) : false,
                   config.use_coverage_count ? p.f_u : 0,
                   config.use_footprint ? footprint : 0, p.ue.value};
}

obs::TiebreakKey to_obs_key(const BsPrefKey& k) {
  return obs::TiebreakKey{k.cross_sp, k.f_u, k.footprint, k.ue};
}

/// Emits one kDecision event for proposer `ue` at BS `i`. Losing decisions
/// carry the tiebreak key so a trace viewer can show *why* it lost.
void record_decision(obs::TraceRecorder& rec, const Scenario& scenario, BsId i, UeId ue,
                     const BsPrefKey& key, bool accepted, obs::DecisionReason reason) {
  obs::TraceEvent e;
  e.kind = obs::EventKind::kDecision;
  e.reason = reason;
  e.flag = accepted;
  e.ue = ue.value;
  e.bs = i.value;
  e.service = scenario.ue(ue).service.value;
  if (!accepted) e.key = to_obs_key(key);
  rec.record(e);
}

}  // namespace

void BsSelectWorkspace::reserve(std::size_t num_services, std::size_t max_proposals) {
  counts_.reserve(num_services);
  offsets_.reserve(num_services + 1);
  keys_.reserve(max_proposals);
  props_.reserve(max_proposals);
  demands_.reserve(max_proposals);
  winners_.reserve(num_services);
  accepted_.reserve(num_services);
}

const std::vector<ProposalInfo>& bs_select(const Scenario& scenario, BsId i,
                                           std::span<const ProposalInfo> proposals,
                                           const BsLocalResources& local,
                                           BsSelectWorkspace& ws, const DmraConfig& config) {
  DMRA_REQUIRE(local.crus.size() == scenario.num_services());
  // Tracing: one pointer test when disabled; all event work is behind it.
  obs::TraceRecorder* const rec = obs::recorder();

  // dmra::hotpath begin(bs-select)
  // Group by requested service (Alg. 1 line 13) with a stable counting
  // sort into the workspace's SoA rows: buckets in ServiceId order,
  // within-bucket in proposal order — the same iteration order the
  // per-service vector buckets (and before them std::map) gave.
  const std::size_t ns = scenario.num_services();
  const std::size_t np = proposals.size();
  ws.counts_.assign(ns, 0);
  for (const ProposalInfo& p : proposals) ++ws.counts_[scenario.ue(p.ue).service.idx()];
  ws.offsets_.assign(ns + 1, 0);
  for (std::size_t j = 0; j < ns; ++j) ws.offsets_[j + 1] = ws.offsets_[j] + ws.counts_[j];
  ws.keys_.resize(np);
  ws.props_.resize(np);
  ws.demands_.resize(np);
  for (std::size_t j = 0; j < ns; ++j) ws.counts_[j] = ws.offsets_[j];  // cursors
  for (const ProposalInfo& p : proposals) {
    const UserEquipment& e = scenario.ue(p.ue);
    DMRA_REQUIRE_MSG(p.n_rrbs > 0, "proposal without an RRB demand (not a candidate)");
    const std::uint32_t row = ws.counts_[e.service.idx()]++;
    ws.keys_[row] = pref_key(scenario, i, p, config);
    ws.props_[row] = p;
    ws.demands_[row] = e.cru_demand;
  }

  // Per service: one winner (lines 14–21). Same-SP UEs form the preferred
  // pool; the BsPrefKey ordering already puts every same-SP proposer ahead
  // of every cross-SP one, so a straight min implements the pool split.
  constexpr std::uint32_t kNoRow = std::numeric_limits<std::uint32_t>::max();
  ws.winners_.clear();
  for (std::size_t j = 0; j < ns; ++j) {
    const auto feasible = [&](std::uint32_t row) {
      return local.crus[j] >= ws.demands_[row] && local.rrbs >= ws.props_[row].n_rrbs;
    };
    // Pick the best proposal the BS can still honour (CRU view at round
    // start) in one pass — no feasible-subset copy.
    std::uint32_t best = kNoRow;
    for (std::uint32_t row = ws.offsets_[j]; row < ws.offsets_[j + 1]; ++row) {
      if (!feasible(row)) {
        if (rec != nullptr)
          record_decision(*rec, scenario, i, ws.props_[row].ue, ws.keys_[row], false,
                          obs::DecisionReason::kInfeasible);
        continue;
      }
      if (best == kNoRow || ws.keys_[row] < ws.keys_[best]) best = row;
    }
    if (rec != nullptr && best != kNoRow) {
      // Second pass, traced runs only: every feasible non-winner lost the
      // lexicographic tiebreak to `best`; record the losing key.
      for (std::uint32_t row = ws.offsets_[j]; row < ws.offsets_[j + 1]; ++row) {
        if (row == best || !feasible(row)) continue;
        record_decision(*rec, scenario, i, ws.props_[row].ue, ws.keys_[row], false,
                        obs::DecisionReason::kLostTiebreak);
      }
    }
    if (best != kNoRow) ws.winners_.push_back(best);
  }

  // Radio trim (lines 22–25): if the winners' aggregate RRB demand
  // overshoots the budget, drop the least-preferred winners until it fits.
  std::uint64_t total_rrbs = 0;
  for (const std::uint32_t row : ws.winners_) total_rrbs += ws.props_[row].n_rrbs;
  if (total_rrbs > local.rrbs) {
    std::sort(ws.winners_.begin(), ws.winners_.end(),
              [&](std::uint32_t a, std::uint32_t b) { return ws.keys_[a] < ws.keys_[b]; });
    while (!ws.winners_.empty() && total_rrbs > local.rrbs) {
      const std::uint32_t victim = ws.winners_.back();
      if (rec != nullptr) {
        obs::TraceEvent t;
        t.kind = obs::EventKind::kTrimEviction;
        t.ue = ws.props_[victim].ue.value;
        t.bs = i.value;
        t.service = scenario.ue(ws.props_[victim].ue).service.value;
        t.value = ws.props_[victim].n_rrbs;
        t.key = to_obs_key(ws.keys_[victim]);
        rec->record(t);
        record_decision(*rec, scenario, i, ws.props_[victim].ue, ws.keys_[victim], false,
                        obs::DecisionReason::kTrimmed);
      }
      total_rrbs -= ws.props_[victim].n_rrbs;
      ws.winners_.pop_back();
    }
  }
  if (rec != nullptr)
    for (const std::uint32_t row : ws.winners_)
      record_decision(*rec, scenario, i, ws.props_[row].ue, ws.keys_[row], true,
                      obs::DecisionReason::kAccepted);

  ws.accepted_.clear();
  for (const std::uint32_t row : ws.winners_) ws.accepted_.push_back(ws.props_[row]);
  std::sort(ws.accepted_.begin(), ws.accepted_.end(),
            [](const ProposalInfo& a, const ProposalInfo& b) { return a.ue < b.ue; });
  return ws.accepted_;
  // dmra::hotpath end(bs-select)
}

std::vector<UeId> bs_select(const Scenario& scenario, BsId i,
                            std::span<const ProposalInfo> proposals,
                            const BsLocalResources& local, const DmraConfig& config) {
  BsSelectWorkspace ws;
  const std::vector<ProposalInfo>& accepted = bs_select(scenario, i, proposals, local, ws, config);
  std::vector<UeId> ues;
  ues.reserve(accepted.size());
  for (const ProposalInfo& p : accepted) ues.push_back(p.ue);
  return ues;
}

}  // namespace dmra
