#include "obs/recorder.hpp"

#include <atomic>

#include "obs/chrome_trace.hpp"
#include "obs/round_csv.hpp"

namespace dmra::obs {

namespace {

thread_local TraceRecorder* g_recorder = nullptr;
std::atomic<std::uint64_t> g_events_recorded{0};

}  // namespace

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kProposal: return "propose";
    case EventKind::kDecision: return "decision";
    case EventKind::kTrimEviction: return "trim-eviction";
    case EventKind::kBroadcast: return "broadcast";
    case EventKind::kPhase: return "phase";
    case EventKind::kTermination: return "termination";
    case EventKind::kFault: return "fault";
    case EventKind::kRepair: return "repair";
    case EventKind::kTimeline: return "timeline";
  }
  return "?";
}

std::string_view to_string(DecisionReason reason) {
  switch (reason) {
    case DecisionReason::kAccepted: return "accepted";
    case DecisionReason::kLostTiebreak: return "lost-tiebreak";
    case DecisionReason::kInfeasible: return "infeasible";
    case DecisionReason::kTrimmed: return "trimmed";
  }
  return "?";
}

void TraceRecorder::record(TraceEvent event) {
  event.round = round_;
  event.slot = rows_.size();
  event.seq = seq_in_slot_++;
  switch (event.kind) {
    case EventKind::kProposal: tally_.proposals++; break;
    case EventKind::kDecision: (event.flag ? tally_.accepts : tally_.rejects)++; break;
    case EventKind::kTrimEviction: tally_.trim_evictions++; break;
    case EventKind::kBroadcast: tally_.broadcasts++; break;
    case EventKind::kPhase:
    case EventKind::kTermination:
    case EventKind::kFault:
    case EventKind::kRepair:
    case EventKind::kTimeline: break;
  }
  events_.push_back(event);
  g_events_recorded.fetch_add(1, std::memory_order_relaxed);
}

EventTally TraceRecorder::take_tally() {
  const EventTally out = tally_;
  tally_ = EventTally{};
  return out;
}

void TraceRecorder::finish_round(RoundRow row) {
  rows_.push_back(row);
  seq_in_slot_ = 0;
}

void TraceRecorder::absorb(const TraceRecorder& shard) {
  events_.reserve(events_.size() + shard.events_.size());
  rows_.reserve(rows_.size() + shard.rows_.size());
  const auto replay = [this](TraceEvent event) {
    // Like record(), minus the round restamp (the shard's producer set
    // it), the tally, and the global counter (already counted once).
    event.slot = rows_.size();
    event.seq = seq_in_slot_++;
    events_.push_back(event);
  };
  // An event's slot is the number of rows emitted before it, so the
  // shard's interleaving of events and round boundaries reconstructs
  // exactly: events with slot s precede the finish of row s.
  std::size_t ei = 0;
  for (std::size_t s = 0; s < shard.rows_.size(); ++s) {
    for (; ei < shard.events_.size() && shard.events_[ei].slot == s; ++ei)
      replay(shard.events_[ei]);
    finish_round(shard.rows_[s]);
  }
  for (; ei < shard.events_.size(); ++ei) replay(shard.events_[ei]);
  metrics_.merge_from(shard.metrics_);
}

std::string TraceRecorder::to_chrome_trace_json() const {
  return export_chrome_trace(*this);
}

std::string TraceRecorder::to_round_csv() const { return export_round_csv(rows_); }

TraceRecorder* recorder() { return g_recorder; }

TraceRecorder* set_recorder(TraceRecorder* rec) {
  TraceRecorder* previous = g_recorder;
  g_recorder = rec;
  return previous;
}

std::uint64_t events_recorded_total() {
  return g_events_recorded.load(std::memory_order_relaxed);
}

void publish_bus_stats(const BusStats& stats, MetricsRegistry& registry) {
  registry.add_counter("bus.rounds", stats.rounds);
  registry.add_counter("bus.messages_sent", stats.messages_sent);
  registry.add_counter("bus.messages_delivered", stats.messages_delivered);
  registry.add_counter("bus.messages_dropped", stats.messages_dropped);
  // Duplication, delay and read-fault counters exist only when those
  // faults actually fired: unconditional zeros would change the
  // deterministic metrics JSON of every fault-free trace (a golden
  // surface).
  if (stats.messages_duplicated != 0)
    registry.add_counter("bus.messages_duplicated", stats.messages_duplicated);
  if (stats.messages_delayed != 0)
    registry.add_counter("bus.messages_delayed", stats.messages_delayed);
  if (stats.reads_dropped != 0) registry.add_counter("bus.reads_dropped", stats.reads_dropped);
  if (stats.reads_delayed != 0) registry.add_counter("bus.reads_delayed", stats.reads_delayed);
}

}  // namespace dmra::obs
