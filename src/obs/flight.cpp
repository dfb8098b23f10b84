#include "obs/flight.hpp"

#include <algorithm>

#include "obs/manifest.hpp"

namespace dmra::obs {

namespace {

thread_local FlightRecorder* g_flight = nullptr;

}  // namespace

FlightRecorder* flight() { return g_flight; }

FlightRecorder* set_flight(FlightRecorder* rec) {
  FlightRecorder* previous = g_flight;
  g_flight = rec;
  return previous;
}

std::string trace_jobs_notice() {
  return "obs: --trace composes with --jobs: the recorder shards per task and "
         "merges in task order, so trace output is byte-identical for every "
         "--jobs value (--trace no longer forces --jobs=1)";
}

FlightRecorder::FlightRecorder(Config config) : config_(config) {
  if (config_.event_capacity == 0) config_.event_capacity = 1;
  if (config_.round_capacity == 0) config_.round_capacity = 1;
  events_.resize(config_.event_capacity);
  rounds_.resize(config_.round_capacity);
  frozen_events_.resize(config_.event_capacity);
  frozen_rounds_.resize(config_.round_capacity);
  if (config_.window_len != 0) metrics_.begin_windows(config_.window_len);
}

void FlightRecorder::set_round(std::uint64_t round) {
  round_ = round;
  if (metrics_.windows_armed()) metrics_.window_tick(round);
  if (dump_on_armed_ && !dump_on_fired_ && round >= dump_on_round_) {
    dump_on_fired_ = true;
    trigger("dump-on-round", round);
  }
}

void FlightRecorder::reserve_agents(std::size_t num_ues, std::size_t num_bss) {
  if (num_ues > ue_seq_.size()) ue_seq_.resize(num_ues, 0);
  if (num_bss > bs_seq_.size()) bs_seq_.resize(num_bss, 0);
}

std::size_t FlightRecorder::agent_slot(const TraceEvent& event) {
  if (event.bs != kNoId && event.bs < bs_seq_.size()) return bs_seq_[event.bs]++;
  if (event.ue != kNoId && event.ue < ue_seq_.size()) return ue_seq_[event.ue]++;
  return 0;
}

void FlightRecorder::record(TraceEvent event) {
  event.round = round_;
  event.slot = agent_slot(event);
  event.seq = events_seen_;
  events_[events_seen_ % events_.size()] = event;
  events_seen_++;
}

void FlightRecorder::finish_round(RoundRow row) {
  rounds_[rounds_seen_ % rounds_.size()] = row;
  rounds_seen_++;
}

std::uint64_t FlightRecorder::events_retained() const {
  return std::min<std::uint64_t>(events_seen_, events_.size());
}

std::uint64_t FlightRecorder::rounds_retained() const {
  return std::min<std::uint64_t>(rounds_seen_, rounds_.size());
}

void FlightRecorder::snapshot_rings() {
  const std::uint64_t ev = events_retained();
  const std::uint64_t first_ev = events_seen_ - ev;
  for (std::uint64_t i = 0; i < ev; ++i)
    frozen_events_[i] = events_[(first_ev + i) % events_.size()];
  frozen_event_count_ = static_cast<std::size_t>(ev);
  const std::uint64_t rd = rounds_retained();
  const std::uint64_t first_rd = rounds_seen_ - rd;
  for (std::uint64_t i = 0; i < rd; ++i)
    frozen_rounds_[i] = rounds_[(first_rd + i) % rounds_.size()];
  frozen_round_count_ = static_cast<std::size_t>(rd);
}

void FlightRecorder::trigger(std::string_view reason, std::uint64_t round,
                             std::uint32_t bs, std::uint32_t ue, bool deterministic) {
  triggers_++;
  if (triggered_) return;
  triggered_ = true;
  trigger_reason_ = reason;
  trigger_round_ = round;
  trigger_bs_ = bs;
  trigger_ue_ = ue;
  trigger_deterministic_ = deterministic;
  trigger_events_seen_ = events_seen_;
  snapshot_rings();
}

void FlightRecorder::arm_dump_on_round(std::uint64_t round) {
  dump_on_armed_ = true;
  dump_on_round_ = round;
}

std::vector<TraceEvent> FlightRecorder::ring_events() const {
  const std::uint64_t ev = events_retained();
  const std::uint64_t first = events_seen_ - ev;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(ev));
  for (std::uint64_t i = 0; i < ev; ++i)
    out.push_back(events_[(first + i) % events_.size()]);
  return out;
}

std::vector<RoundRow> FlightRecorder::ring_rounds() const {
  const std::uint64_t rd = rounds_retained();
  const std::uint64_t first = rounds_seen_ - rd;
  std::vector<RoundRow> out;
  out.reserve(static_cast<std::size_t>(rd));
  for (std::uint64_t i = 0; i < rd; ++i)
    out.push_back(rounds_[(first + i) % rounds_.size()]);
  return out;
}

void FlightRecorder::absorb(const FlightRecorder& shard) {
  // Stamp offsets: what a single recorder observing the tasks in order
  // would have counted before this shard's first event.
  const std::uint64_t seq_off = events_seen_;
  const std::uint64_t rounds_off = rounds_seen_;
  // Grow per-agent counters first so the offset lookups below never go
  // out of range; new entries start at 0 (this recorder never saw them).
  reserve_agents(shard.ue_seq_.size(), shard.bs_seq_.size());

  const auto offset_slot = [&](TraceEvent& e) {
    if (e.bs != kNoId && e.bs < shard.bs_seq_.size()) e.slot += bs_seq_[e.bs];
    else if (e.ue != kNoId && e.ue < shard.ue_seq_.size()) e.slot += ue_seq_[e.ue];
  };

  // Re-stamp the shard's retained events at their combined-stream
  // positions; the rolling ring is compositional, so writing each at
  // (seq + seq_off) % cap reproduces exactly what the serial recorder's
  // ring would hold.
  for (const TraceEvent& shard_event : shard.ring_events()) {
    TraceEvent e = shard_event;
    e.seq += seq_off;
    offset_slot(e);
    events_[e.seq % events_.size()] = e;
  }
  events_seen_ = seq_off + shard.events_seen_;

  const std::uint64_t shard_rd = shard.rounds_retained();
  const std::uint64_t shard_first_rd = shard.rounds_seen_ - shard_rd;
  for (std::uint64_t i = 0; i < shard_rd; ++i) {
    const std::uint64_t pos = rounds_off + shard_first_rd + i;
    rounds_[pos % rounds_.size()] = shard.rounds_[(shard_first_rd + i) % shard.rounds_.size()];
  }
  rounds_seen_ = rounds_off + shard.rounds_seen_;

  // First trigger in task order wins: adopt the shard's frozen snapshot
  // with the same stamp offsets.
  if (shard.triggered_ && !triggered_) {
    triggered_ = true;
    trigger_reason_ = shard.trigger_reason_;
    trigger_round_ = shard.trigger_round_;
    trigger_bs_ = shard.trigger_bs_;
    trigger_ue_ = shard.trigger_ue_;
    trigger_deterministic_ = shard.trigger_deterministic_;
    trigger_events_seen_ = seq_off + shard.trigger_events_seen_;
    frozen_event_count_ = shard.frozen_event_count_;
    for (std::size_t i = 0; i < shard.frozen_event_count_; ++i) {
      TraceEvent e = shard.frozen_events_[i];
      e.seq += seq_off;
      offset_slot(e);
      frozen_events_[i] = e;
    }
    frozen_round_count_ = shard.frozen_round_count_;
    for (std::size_t i = 0; i < shard.frozen_round_count_; ++i)
      frozen_rounds_[i] = shard.frozen_rounds_[i];
  }
  triggers_ += shard.triggers_;

  // Now fold the per-agent counters: the combined stream saw both.
  for (std::size_t i = 0; i < shard.ue_seq_.size(); ++i) ue_seq_[i] += shard.ue_seq_[i];
  for (std::size_t i = 0; i < shard.bs_seq_.size(); ++i) bs_seq_[i] += shard.bs_seq_[i];

  metrics_.merge_from(shard.metrics_);
  if (round_ < shard.round_) round_ = shard.round_;
  if (fault_context_.empty()) fault_context_ = shard.fault_context_;
}

namespace {

JsonObject event_json(const TraceEvent& e) {
  JsonObject out;
  out["kind"] = std::string(to_string(e.kind));
  out["round"] = e.round;
  out["seq"] = e.seq;
  out["agent_seq"] = e.slot;
  if (e.ue != kNoId) out["ue"] = e.ue;
  if (e.bs != kNoId) out["bs"] = e.bs;
  if (e.service != kNoId) out["service"] = e.service;
  out["value"] = e.value;
  if (!e.label.empty()) out["label"] = std::string(e.label);
  if (e.kind == EventKind::kDecision) {
    out["accept"] = e.flag;
    out["reason"] = std::string(to_string(e.reason));
  }
  if (e.kind == EventKind::kTermination) out["converged"] = e.flag;
  return out;
}

JsonObject round_json(const RoundRow& r) {
  JsonObject out;
  out["source"] = std::string(r.source);
  out["round"] = r.round;
  out["proposals"] = r.proposals;
  out["accepts"] = r.accepts;
  out["rejects"] = r.rejects;
  out["trim_evictions"] = r.trim_evictions;
  out["broadcasts"] = r.broadcasts;
  out["messages"] = r.messages;
  out["receptions"] = r.receptions;
  out["unmatched_ues"] = r.unmatched_ues;
  out["cumulative_profit"] = r.cumulative_profit;
  out["cru_headroom"] = r.cru_headroom;
  out["rrb_headroom"] = r.rrb_headroom;
  return out;
}

JsonObject window_json(const MetricsWindow& w) {
  JsonObject counters;
  for (const auto& [name, delta] : w.counter_deltas) counters[name] = delta;
  JsonObject gauge_last;
  for (const auto& [name, value] : w.gauge_last) gauge_last[name] = value;
  JsonObject gauge_max;
  for (const auto& [name, value] : w.gauge_max) gauge_max[name] = value;
  JsonObject out;
  out["first_tick"] = w.first_tick;
  out["last_tick"] = w.last_tick;
  out["counter_deltas"] = std::move(counters);
  out["gauge_last"] = std::move(gauge_last);
  out["gauge_max"] = std::move(gauge_max);
  return out;
}

}  // namespace

std::string FlightRecorder::postmortem_json() const {
  JsonObject doc;
  doc["schema"] = std::string(kPostmortemSchema);
  doc["git"] = std::string(git_describe());
  doc["build"] = build_flavor_json();

  if (triggered_) {
    JsonObject trig;
    trig["reason"] = std::string(trigger_reason_);
    trig["round"] = trigger_round_;
    if (trigger_bs_ != kNoId) trig["bs"] = trigger_bs_;
    if (trigger_ue_ != kNoId) trig["ue"] = trigger_ue_;
    trig["deterministic"] = trigger_deterministic_;
    trig["count"] = triggers_;
    doc["trigger"] = std::move(trig);
    doc["events_after_trigger"] = events_seen_ - trigger_events_seen_;
  } else {
    doc["trigger"] = nullptr;
    doc["events_after_trigger"] = std::uint64_t{0};
  }
  doc["fault_context"] = fault_context_;

  JsonObject stats;
  stats["events_seen"] = events_seen_;
  stats["events_retained"] = events_retained();
  stats["events_dropped"] = events_dropped();
  stats["rounds_seen"] = rounds_seen_;
  stats["rounds_retained"] = rounds_retained();
  stats["event_capacity"] = std::uint64_t{config_.event_capacity};
  stats["round_capacity"] = std::uint64_t{config_.round_capacity};
  stats["triggers"] = triggers_;
  doc["flight"] = std::move(stats);

  // The frozen black box when triggered, the live rings otherwise.
  // emplace_back constructs each JsonValue in place: the push_back form
  // moves through a variant temporary that gcc 12 (RelWithDebInfo) flags
  // with a spurious -Wmaybe-uninitialized (same fix as obs/manifest.cpp).
  JsonArray events;
  JsonArray rounds;
  if (triggered_) {
    for (std::size_t i = 0; i < frozen_event_count_; ++i)
      events.emplace_back(event_json(frozen_events_[i]));
    for (std::size_t i = 0; i < frozen_round_count_; ++i)
      rounds.emplace_back(round_json(frozen_rounds_[i]));
  } else {
    for (const TraceEvent& e : ring_events()) events.emplace_back(event_json(e));
    for (const RoundRow& r : ring_rounds()) rounds.emplace_back(round_json(r));
  }
  doc["events"] = std::move(events);
  doc["rounds"] = std::move(rounds);

  doc["metrics"] = metrics_.deterministic_json();
  JsonArray windows;
  for (const MetricsWindow& w : metrics_.collect_windows())
    windows.emplace_back(window_json(w));
  doc["windows"] = std::move(windows);

  return JsonValue(std::move(doc)).dump(2) + "\n";
}

}  // namespace dmra::obs
