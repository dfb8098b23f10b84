#include "core/incremental.hpp"

#include <algorithm>
#include <utility>

#include "mec/audit.hpp"
#include "mec/resources.hpp"
#include "obs/flight.hpp"
#include "obs/recorder.hpp"
#include "util/require.hpp"

namespace dmra {
namespace {

/// The deployment as slot u sees it right now: every BS's capacity is its
/// live remaining capacity, and u (renumbered to UE 0) is the only UE.
Scenario residual_scenario(const Scenario& universe, const ResourceState& state, UeId u) {
  ScenarioData data;
  data.num_services = universe.num_services();
  data.sps.assign(universe.sps().begin(), universe.sps().end());
  data.bss.assign(universe.bss().begin(), universe.bss().end());
  for (BaseStation& b : data.bss) {
    for (std::size_t j = 0; j < data.num_services; ++j)
      b.cru_capacity[j] = state.remaining_crus(b.id, ServiceId{static_cast<std::uint32_t>(j)});
    b.num_rrbs = state.remaining_rrbs(b.id);
  }
  UserEquipment slot = universe.ue(u);
  slot.id = UeId{0};
  data.ues.push_back(slot);
  data.channel = universe.channel();
  data.ofdma = universe.ofdma();
  data.pricing = universe.pricing();
  data.coverage_radius_m = universe.coverage_radius_m();
  return Scenario(std::move(data));
}

}  // namespace

IncrementalAllocator::IncrementalAllocator(const Scenario& scenario,
                                           IncrementalConfig config)
    : scenario_(&scenario),
      config_(config),
      state_(scenario),
      allocation_(scenario.num_ues()),
      active_((scenario.num_ues() + 63) / 64, 0),
      waiting_((scenario.num_ues() + 63) / 64, 0),
      wait_lists_(scenario.num_bss()),
      raised_(scenario.num_bss(), false),
      clamped_(scenario.num_bss(), false) {
  DMRA_REQUIRE_MSG(config_.rule == nullptr || scenario.channel().shadowing_sigma_db == 0.0,
                   "an admission rule needs an unshadowed channel");
  sweep_.reserve(scenario.num_bss());
}

std::optional<BsId> IncrementalAllocator::admit(UeId u) {
  DMRA_REQUIRE_MSG(u.idx() < allocation_.num_ues(), "slot outside the universe");
  DMRA_REQUIRE_MSG(!active(u), "admit on an already-active slot");
  active_[u.idx() / 64] |= std::uint64_t{1} << (u.idx() % 64);
  ++num_active_;
  return place(u);
}

std::optional<BsId> IncrementalAllocator::reattempt(UeId u) {
  DMRA_REQUIRE_MSG(u.idx() < allocation_.num_ues(), "slot outside the universe");
  DMRA_REQUIRE_MSG(active(u), "reattempt on an inactive slot");
  DMRA_REQUIRE_MSG(allocation_.is_cloud(u), "reattempt on a served slot");
  return place(u);
}

std::optional<BsId> IncrementalAllocator::ask_rule(UeId u, std::uint32_t& live_fu) const {
  const Scenario residual = residual_scenario(*scenario_, state_, u);
  live_fu = static_cast<std::uint32_t>(residual.coverage_count(UeId{0}));
  // The rule is a whole one-shot run: keep its rounds out of the serving
  // trace and flight ring. The audit observer stays, so the rule's own
  // round reports audit its residual run.
  const Allocation answer = [&] {
    obs::ScopedTraceRecorder mute_trace(nullptr);
    obs::ScopedFlightRecorder mute_flight(nullptr);
    return config_.rule->allocate(residual);
  }();
  const std::optional<BsId> bs = answer.bs_of(UeId{0});
  DMRA_REQUIRE_MSG(!bs || state_.can_serve(u, *bs),
                   "admission rule chose a BS that cannot carry the slot");
  return bs;
}

std::optional<BsId> IncrementalAllocator::place(UeId u) {
  const UserEquipment& e = scenario_->ue(u);
  const std::span<const BsId> cands = scenario_->candidates(u);
  const std::span<const std::uint32_t> rrbs = scenario_->candidate_rrbs(u);
  std::optional<BsId> best;
  std::size_t best_k = 0;  // the winner's slot in u's candidate row
  std::uint32_t live_fu = 0;
  if (config_.rule != nullptr) {
    best = ask_rule(u, live_fu);
    if (best) best_k = scenario_->candidate_slot(u, *best);
  } else {
    // Alg. 1 with a single proposer: arg-min Eq. 17 preference over the
    // serviceable candidates; an uncontended BS accepts any feasible
    // proposal, so the first proposal round decides.
    // dmra::hotpath begin(admit-one)
    const std::span<const double> prices = scenario_->candidate_prices(u);
    double best_v = 0.0;
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
        best_k = k;
        best_v = v;
      }
    }
    // dmra::hotpath end(admit-one)
  }

  obs::TraceRecorder* const rec = obs::recorder();
  if (!best) {
    // B_u exhausted (or empty): remote cloud, Alg. 1 line 10. Only a slot
    // with candidates waits for the readmit sweep.
    allocation_.assign_cloud(u);
    if (!cands.empty()) enter_waiting(u);
    // A rule may refuse a slot that fits, and answer otherwise once the
    // residual changes: the next sweep retries it on the BSs it fits. The
    // built-in rule refuses only a slot that fits nowhere.
    if (config_.rule != nullptr)
      for (std::size_t k = 0; k < cands.size(); ++k)
        if (state_.fits(e, cands[k], rrbs[k])) raise(cands[k]);
    return std::nullopt;
  }
  clear_waiting(u);
  state_.commit(u, *best, rrbs[best_k]);
  allocation_.assign(u, *best);
  live_profit_ += scenario_->candidate_profit(u, best_k);
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
  DMRA_REQUIRE_MSG(u.idx() < allocation_.num_ues(), "slot outside the universe");
  DMRA_REQUIRE_MSG(active(u), "remove on an inactive slot");
  active_[u.idx() / 64] &= ~(std::uint64_t{1} << (u.idx() % 64));
  --num_active_;
  clear_waiting(u);
  const auto bs = allocation_.bs_of(u);
  if (!bs) return;  // was cloud-forwarded; nothing held
  const std::size_t k = scenario_->candidate_slot(u, *bs);
  live_profit_ -= scenario_->candidate_profit(u, k);
  state_.release(u, *bs, scenario_->candidate_rrbs(u)[k]);
  allocation_.assign_cloud(u);
  raise(*bs);
}

void IncrementalAllocator::enter_waiting(UeId u) {
  if (waiting(u)) return;
  // The bit first: a compaction below then keeps u's entries from an
  // earlier wait, and the search finds them.
  set_waiting(u);
  const std::span<const BsId> cands = scenario_->candidates(u);
  const std::span<const std::uint32_t> rrbs = scenario_->candidate_rrbs(u);
  for (std::size_t k = 0; k < cands.size(); ++k) {
    WaitList& list = wait_lists_[cands[k].idx()];
    std::vector<WaitEntry>& entries = list.entries;
    if (entries.size() >= std::max<std::size_t>(2 * list.compacted, 32)) {
      std::erase_if(entries, [&](const WaitEntry& e) { return !waiting(UeId{e.slot}); });
      list.compacted = entries.size();
    }
    // Slots wait in event order, so most inserts append; a crash orphan
    // or a slot waiting again goes in by search.
    if (entries.empty() || entries.back().slot < u.value) {
      entries.push_back(WaitEntry{u.value, rrbs[k]});
      continue;
    }
    const auto at = std::lower_bound(
        entries.begin(), entries.end(), u.value,
        [](const WaitEntry& e, std::uint32_t slot) { return e.slot < slot; });
    if (at->slot == u.value)
      at->rrbs = rrbs[k];  // listed from an earlier wait; a sweep may have marked it gone
    else
      entries.insert(at, WaitEntry{u.value, rrbs[k]});
  }
}

void IncrementalAllocator::begin_sweep() {
  sweep_.clear();
  sweep_next_ = 0;
  for (std::size_t i = 0; i < raised_.size(); ++i) {
    if (!raised_[i]) continue;
    raised_[i] = false;
    SweepCursor c{0, static_cast<std::uint32_t>(i), 0};
    if (seek(c)) sweep_.push_back(c);
  }
}

// dmra::hotpath begin(readmit-merge)
std::optional<UeId> IncrementalAllocator::next_readmit() {
  while (!sweep_.empty()) {
    std::size_t c = 0;
    for (std::size_t k = 1; k < sweep_.size(); ++k)
      if (sweep_[k].head < sweep_[c].head) c = k;
    SweepCursor& cur = sweep_[c];
    // Only visited slots change during a sweep, so a head past the last
    // visit still waits, but the placements since it was found may have
    // used up the room it fit. A visited head is passed on the next call.
    if (cur.head >= sweep_next_ &&
        state_.fits(scenario_->ue(UeId{cur.head}), BsId{cur.bs},
                    wait_lists_[cur.bs].entries[cur.read].rrbs)) {
      sweep_next_ = std::uint64_t{cur.head} + 1;
      return UeId{cur.head};
    }
    ++cur.read;
    if (!seek(cur)) {
      cur = sweep_.back();
      sweep_.pop_back();
    }
  }
  return std::nullopt;
}

bool IncrementalAllocator::seek(SweepCursor& c) {
  std::vector<WaitEntry>& entries = wait_lists_[c.bs].entries;
  const BsId i{c.bs};
  const std::uint32_t rem_rrbs = state_.remaining_rrbs(i);
  // Every entry past a head lies past the last visit, and capacity only
  // falls during a sweep: an entry that does not fit now never will.
  for (std::size_t r = c.read; r < entries.size(); ++r) {
    WaitEntry& e = entries[r];
    if (e.rrbs > rem_rrbs) continue;
    if (!waiting(UeId{e.slot})) {
      e.rrbs = kGone;
      continue;
    }
    if (state_.fits(scenario_->ue(UeId{e.slot}), i, e.rrbs)) {
      c.head = e.slot;
      c.read = static_cast<std::uint32_t>(r);
      return true;
    }
  }
  return false;
}
// dmra::hotpath end(readmit-merge)

std::size_t IncrementalAllocator::crash_bs(BsId i, std::vector<UeId>& orphans) {
  std::size_t evicted = 0;
  for_each_active([&](UeId u) {
    const auto bs = allocation_.bs_of(u);
    if (!bs || *bs != i) return;
    live_profit_ -= scenario_->candidate_profit(u, scenario_->candidate_slot(u, i));
    allocation_.assign_cloud(u);
    enter_waiting(u);  // served on i, so i is among its candidates
    // An orphan was never refused: it may fit any of its candidates.
    for (const BsId c : scenario_->candidates(u)) raise(c);
    orphans.push_back(u);
    ++evicted;
  });
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
  state_.restore_capacity(i);
  for_each_active([&](UeId u) {
    if (const auto bs = allocation_.bs_of(u); bs && *bs == i)
      state_.commit(u, i, scenario_->candidate_rrbs(u, i));
  });
  if (clamped_[i.idx()]) {
    clamped_[i.idx()] = false;
    --clamped_bss_;
  }
  raise(i);
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
