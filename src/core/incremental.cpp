#include "core/incremental.hpp"

#include <algorithm>

#include "mec/audit.hpp"
#include "mec/resources.hpp"
#include "obs/flight.hpp"
#include "obs/recorder.hpp"
#include "util/require.hpp"

namespace dmra {

IncrementalResult solve_incremental_dmra(const Scenario& scenario,
                                         const Allocation& previous,
                                         const IncrementalConfig& config) {
  DMRA_REQUIRE(previous.num_ues() == scenario.num_ues());
  DMRA_REQUIRE(config.hysteresis_margin >= 0.0);

  IncrementalResult result;
  ResourceState state(scenario);
  Allocation allocation(scenario.num_ues());
  std::vector<bool> matched(scenario.num_ues(), false);

  // Phase 1: carry over what still works. Commit in UE-id order so a BS
  // that can no longer hold *all* its previous UEs keeps a deterministic
  // prefix of them.
  // dmra::hotpath begin(carry-over)
  for (std::size_t ui = 0; ui < scenario.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    const auto bs = previous.bs_of(u);
    if (!bs) continue;
    if (!state.can_serve(u, *bs)) {
      ++result.invalidated;
      continue;
    }
    state.commit(u, *bs);
    allocation.assign(u, *bs);
    matched[ui] = true;
  }
  // dmra::hotpath end(carry-over)

  // Phase 2: hysteresis — release kept UEs whose current deal has drifted
  // far from their best alternative. (Release before re-matching so the
  // freed capacity is visible to the rematch round.)
  // dmra::hotpath begin(hysteresis)
  if (config.hysteresis_margin < 1e17) {
    for (std::size_t ui = 0; ui < scenario.num_ues(); ++ui) {
      if (!matched[ui]) continue;
      const UeId u{static_cast<std::uint32_t>(ui)};
      const BsId current = *allocation.bs_of(u);
      const double current_price = scenario.price(u, current);
      double best_price = current_price;
      // Candidate prices are precomputed per slot at scenario build; the
      // carried BS may have left the candidate set, so it is priced above.
      for (const double p : scenario.candidate_prices(u))
        best_price = std::min(best_price, p);
      if (current_price - best_price > config.hysteresis_margin) {
        state.release(u, current);
        allocation.assign_cloud(u);
        matched[ui] = false;
        ++result.released;
      }
    }
  }
  // dmra::hotpath end(hysteresis)
  result.kept = allocation.num_served();
  // Audit the carry-over + hysteresis state before the rematch: catches a
  // kept assignment that is no longer feasible or an unpaired release.
  if (DMRA_AUDIT_ACTIVE())
    audit::report_state_round("core/incremental", 0, scenario, allocation, state);

  obs::TraceRecorder* const rec = obs::recorder();
  obs::FlightRecorder* const fr = obs::flight();
  if (rec != nullptr || fr != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kPhase;
    e.label = "core/incremental:carry-over";
    e.value = result.kept;
    const auto publish = [&](obs::MetricsRegistry& m) {
      m.add_counter("incremental.kept", result.kept);
      m.add_counter("incremental.released", result.released);
      m.add_counter("incremental.invalidated", result.invalidated);
    };
    if (rec != nullptr) {
      publish(rec->metrics());
      rec->record(e);
    }
    if (fr != nullptr) {
      publish(fr->metrics());
      fr->record(e);
    }
  }

  // Phase 3: match everyone displaced or never-assigned.
  result.rematch = solve_dmra_partial(scenario, config.dmra, state, allocation, matched);
  result.allocation = allocation;
  return result;
}

IncrementalAllocator::IncrementalAllocator(const Scenario& scenario,
                                           IncrementalConfig config)
    : scenario_(&scenario),
      config_(config),
      state_(scenario),
      allocation_(scenario.num_ues()),
      active_(scenario.num_ues(), false),
      waiting_((scenario.num_ues() + 63) / 64, 0),
      clamped_(scenario.num_bss(), false) {}

std::optional<BsId> IncrementalAllocator::admit(UeId u) {
  DMRA_REQUIRE_MSG(!active_[u.idx()], "admit on an already-active slot");
  active_[u.idx()] = true;
  ++num_active_;
  return place(u);
}

std::optional<BsId> IncrementalAllocator::reattempt(UeId u) {
  DMRA_REQUIRE_MSG(active_[u.idx()], "reattempt on an inactive slot");
  DMRA_REQUIRE_MSG(allocation_.is_cloud(u), "reattempt on a served slot");
  return place(u);
}

std::optional<BsId> IncrementalAllocator::place(UeId u) {
  // Alg. 1 with a single proposer: arg-min Eq. 17 preference over the
  // serviceable candidates; an uncontended BS accepts any feasible
  // proposal, so the first proposal round decides.
  // dmra::hotpath begin(admit-one)
  const UserEquipment& e = scenario_->ue(u);
  const std::span<const BsId> cands = scenario_->candidates(u);
  const std::span<const double> prices = scenario_->candidate_prices(u);
  const std::span<const std::uint32_t> rrbs = scenario_->candidate_rrbs(u);
  std::optional<BsId> best;
  double best_v = 0.0;
  std::uint32_t live_fu = 0;
  for (std::size_t k = 0; k < cands.size(); ++k) {
    const BsId i = cands[k];
    const std::uint32_t rem_cru = state_.remaining_crus(i, e.service);
    const std::uint32_t rem_rrb = state_.remaining_rrbs(i);
    if (rem_cru < e.cru_demand || rem_rrb < rrbs[k]) continue;
    ++live_fu;
    const double v = ue_preference_value(prices[k], config_.dmra.rho, rem_cru, rem_rrb);
    // Ties break toward the smaller BsId — candidates are ascending, so
    // strict < keeps the earlier (smaller) one.
    if (!best || v < best_v) {
      best = i;
      best_v = v;
    }
  }
  // dmra::hotpath end(admit-one)

  obs::TraceRecorder* const rec = obs::recorder();
  if (!best) {
    // B_u exhausted (or empty): remote cloud, Alg. 1 line 10. Only a slot
    // with candidates waits for the readmit sweep.
    allocation_.assign_cloud(u);
    if (!cands.empty()) set_waiting(u);
    return std::nullopt;
  }
  clear_waiting(u);
  state_.commit(u, *best);
  allocation_.assign(u, *best);
  live_profit_ += scenario_->pair_profit(u, *best);
  if (rec != nullptr) {
    obs::TraceEvent p;
    p.kind = obs::EventKind::kProposal;
    p.ue = u.value;
    p.bs = best->value;
    p.service = e.service.value;
    p.value = live_fu;
    rec->record(p);
    obs::TraceEvent d;
    d.kind = obs::EventKind::kDecision;
    d.flag = true;
    d.ue = u.value;
    d.bs = best->value;
    d.service = e.service.value;
    rec->record(d);
  }
  return best;
}

void IncrementalAllocator::remove(UeId u) {
  DMRA_REQUIRE_MSG(active_[u.idx()], "remove on an inactive slot");
  active_[u.idx()] = false;
  --num_active_;
  clear_waiting(u);
  const auto bs = allocation_.bs_of(u);
  if (!bs) return;  // was cloud-forwarded; nothing held
  live_profit_ -= scenario_->pair_profit(u, *bs);
  // A crashed/degraded BS's ledger is clamped, not committed: releasing
  // into the clamp would manufacture capacity. Recount on recovery
  // instead (recover_bs).
  if (!clamped_[bs->idx()]) state_.release(u, *bs);
  allocation_.assign_cloud(u);
}

std::size_t IncrementalAllocator::crash_bs(BsId i, std::vector<UeId>& orphans) {
  std::size_t evicted = 0;
  for (std::size_t ui = 0; ui < allocation_.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    const auto bs = allocation_.bs_of(u);
    if (!bs || *bs != i) continue;
    live_profit_ -= scenario_->pair_profit(u, i);
    allocation_.assign_cloud(u);
    set_waiting(u);  // served on i, so i is among its candidates
    orphans.push_back(u);
    ++evicted;
  }
  const std::vector<std::uint32_t> zero_crus(scenario_->num_services(), 0);
  state_.clamp_remaining(i, zero_crus, 0);
  if (!clamped_[i.idx()]) {
    clamped_[i.idx()] = true;
    ++clamped_bss_;
  }
  // The crash is the canonical flight-recorder trigger: freeze the ring
  // here, where the lifecycle op happens, so every caller (sim/churn's
  // replay included) gets the post-mortem without its own hook.
  if (obs::FlightRecorder* const fr = obs::flight(); fr != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kFault;
    e.label = "bs-crash";
    e.bs = i.value;
    e.value = evicted;
    fr->record(e);
    fr->trigger("bs-crash", fr->round(), i.value);
  }
  return evicted;
}

void IncrementalAllocator::recover_bs(BsId i) {
  state_.recount_remaining(i, allocation_);
  if (clamped_[i.idx()]) {
    clamped_[i.idx()] = false;
    --clamped_bss_;
  }
  if (obs::FlightRecorder* const fr = obs::flight(); fr != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kRepair;
    e.label = "bs-recover";
    e.bs = i.value;
    fr->record(e);
  }
}

void IncrementalAllocator::degrade_bs(BsId i, double cru_factor, double rrb_factor) {
  DMRA_REQUIRE(cru_factor >= 0.0 && cru_factor <= 1.0);
  DMRA_REQUIRE(rrb_factor >= 0.0 && rrb_factor <= 1.0);
  const std::size_t ns = scenario_->num_services();
  std::vector<std::uint32_t> caps(ns);
  for (std::size_t j = 0; j < ns; ++j) {
    const auto rem = state_.remaining_crus(i, ServiceId{static_cast<std::uint32_t>(j)});
    caps[j] = static_cast<std::uint32_t>(static_cast<double>(rem) * cru_factor);
  }
  const auto rrb_cap = static_cast<std::uint32_t>(
      static_cast<double>(state_.remaining_rrbs(i)) * rrb_factor);
  state_.clamp_remaining(i, caps, rrb_cap);
  if (!clamped_[i.idx()]) {
    clamped_[i.idx()] = true;
    ++clamped_bss_;
  }
  if (obs::FlightRecorder* const fr = obs::flight(); fr != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kFault;
    e.label = "bs-degrade";
    e.bs = i.value;
    fr->record(e);
  }
}

void IncrementalAllocator::audit_round(std::size_t round) const {
  if (!DMRA_AUDIT_ACTIVE()) return;
  if (!capacity_nominal()) return;  // clamped ledger ≠ recount, by design
  audit::report_state_round("core/incremental", round, *scenario_, allocation_, state_);
}

}  // namespace dmra
