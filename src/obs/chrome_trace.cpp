#include "obs/chrome_trace.hpp"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "util/json.hpp"

namespace dmra::obs {

namespace {

// One logical round/epoch per "second" of trace time, in microseconds.
constexpr std::uint64_t kSlotTicks = 1'000'000;
constexpr int kPid = 1;

// Fixed track (tid) layout. Round tracks for each source come first so
// Perfetto sorts them to the top; per-kind instant tracks follow.
constexpr int kFirstRoundTrack = 1;
constexpr int kProposalTrack = 100;
constexpr int kDecisionTrack = 101;
constexpr int kTrimTrack = 102;
constexpr int kBroadcastTrack = 103;
constexpr int kLifecycleTrack = 104;
constexpr int kFaultTrack = 105;
constexpr int kTimelineTrack = 106;

int instant_track(EventKind kind) {
  switch (kind) {
    case EventKind::kProposal: return kProposalTrack;
    case EventKind::kDecision: return kDecisionTrack;
    case EventKind::kTrimEviction: return kTrimTrack;
    case EventKind::kBroadcast: return kBroadcastTrack;
    case EventKind::kPhase:
    case EventKind::kTermination: return kLifecycleTrack;
    case EventKind::kFault:
    case EventKind::kRepair: return kFaultTrack;
    case EventKind::kTimeline: return kTimelineTrack;
  }
  return kLifecycleTrack;
}

JsonObject metadata_event(const char* name, int tid, std::string value) {
  JsonObject args;
  args["name"] = std::move(value);
  JsonObject m;
  m["name"] = name;
  m["ph"] = "M";
  m["pid"] = kPid;
  m["tid"] = tid;
  m["args"] = std::move(args);
  return m;
}

JsonObject key_json(const TiebreakKey& key) {
  JsonObject k;
  k["cross_sp"] = key.cross_sp;
  k["f_u"] = key.f_u;
  k["footprint"] = key.footprint;
  k["ue"] = key.ue;
  return k;
}

JsonObject counter_event(const char* name, std::string_view source, std::uint64_t ts,
                         JsonValue value) {
  JsonObject args;
  args[std::string(source)] = std::move(value);
  JsonObject c;
  c["name"] = name;
  c["ph"] = "C";
  c["pid"] = kPid;
  c["tid"] = 0;
  c["ts"] = ts;
  c["args"] = std::move(args);
  return c;
}

}  // namespace

std::string export_chrome_trace(const TraceRecorder& recorder) {
  JsonArray trace_events;
  trace_events.push_back(metadata_event("process_name", 0, "dmra"));
  trace_events.push_back(metadata_event("thread_name", kProposalTrack, "ue proposals"));
  trace_events.push_back(metadata_event("thread_name", kDecisionTrack, "bs decisions"));
  trace_events.push_back(metadata_event("thread_name", kTrimTrack, "radio-trim evictions"));
  trace_events.push_back(metadata_event("thread_name", kBroadcastTrack,
                                        "resource broadcasts"));
  trace_events.push_back(metadata_event("thread_name", kLifecycleTrack, "lifecycle"));
  // The faults and event-timeline tracks are declared lazily: emitting
  // them unconditionally would change the byte-identical export of every
  // fault-free / non-serving run (the golden surface the zero-fault
  // contract is tested against).
  for (const TraceEvent& e : recorder.events()) {
    if (e.kind == EventKind::kFault || e.kind == EventKind::kRepair) {
      trace_events.push_back(
          metadata_event("thread_name", kFaultTrack, "faults & recovery"));
      break;
    }
  }
  for (const TraceEvent& e : recorder.events()) {
    if (e.kind == EventKind::kTimeline) {
      trace_events.push_back(
          metadata_event("thread_name", kTimelineTrack, "event timeline"));
      break;
    }
  }

  // Round tracks: one per distinct RoundRow source, in first-appearance
  // order (deterministic — rows are appended in execution order).
  std::map<std::string_view, int> round_track;
  for (const RoundRow& row : recorder.rows()) {
    if (round_track.contains(row.source)) continue;
    const int tid = kFirstRoundTrack + static_cast<int>(round_track.size());
    round_track.emplace(row.source, tid);
    trace_events.push_back(
        metadata_event("thread_name", tid, "rounds: " + std::string(row.source)));
  }

  // Rounds as slices + their aggregates as counter series.
  for (std::size_t i = 0; i < recorder.rows().size(); ++i) {
    const RoundRow& row = recorder.rows()[i];
    const std::uint64_t ts = i * kSlotTicks;
    JsonObject args;
    args["round"] = row.round;
    args["proposals"] = row.proposals;
    args["accepts"] = row.accepts;
    args["rejects"] = row.rejects;
    args["trim_evictions"] = row.trim_evictions;
    args["broadcasts"] = row.broadcasts;
    args["messages"] = row.messages;
    args["receptions"] = row.receptions;
    args["unmatched_ues"] = row.unmatched_ues;
    args["cumulative_profit"] = row.cumulative_profit;
    args["cru_headroom"] = row.cru_headroom;
    args["rrb_headroom"] = row.rrb_headroom;
    JsonObject slice;
    slice["name"] = std::string(row.source);
    slice["ph"] = "X";
    slice["pid"] = kPid;
    slice["tid"] = round_track.at(row.source);
    slice["ts"] = ts;
    slice["dur"] = kSlotTicks;
    slice["args"] = std::move(args);
    trace_events.push_back(std::move(slice));

    trace_events.push_back(counter_event("unmatched_ues", row.source, ts,
                                         JsonValue(row.unmatched_ues)));
    trace_events.push_back(counter_event("cumulative_profit", row.source, ts,
                                         JsonValue(row.cumulative_profit)));
    trace_events.push_back(counter_event("cru_headroom", row.source, ts,
                                         JsonValue(row.cru_headroom)));
    trace_events.push_back(counter_event("rrb_headroom", row.source, ts,
                                         JsonValue(row.rrb_headroom)));
    trace_events.push_back(counter_event("messages", row.source, ts,
                                         JsonValue(row.messages)));
  }

  // Individual events as instants, laid out by record order within their
  // slot (clamped so they never spill into the next slice).
  for (const TraceEvent& e : recorder.events()) {
    const std::uint64_t ts =
        e.slot * kSlotTicks + (e.seq < kSlotTicks ? e.seq : kSlotTicks - 1);
    JsonObject args;
    args["round"] = e.round;
    if (e.ue != kNoId) args["ue"] = e.ue;
    if (e.bs != kNoId) args["bs"] = e.bs;
    if (e.service != kNoId) args["service"] = e.service;
    std::string name;
    switch (e.kind) {
      case EventKind::kProposal:
        args["f_u"] = e.value;
        name = to_string(e.kind);
        break;
      case EventKind::kDecision:
        args["accept"] = e.flag;
        args["reason"] = std::string(to_string(e.reason));
        if (!e.flag) args["losing_key"] = key_json(e.key);
        name = e.flag ? "accept" : "reject";
        break;
      case EventKind::kTrimEviction:
        args["n_rrbs"] = e.value;
        args["losing_key"] = key_json(e.key);
        name = to_string(e.kind);
        break;
      case EventKind::kBroadcast:
        args["stamp"] = e.value;
        name = to_string(e.kind);
        break;
      case EventKind::kPhase:
        args["value"] = e.value;
        name = std::string(e.label.empty() ? to_string(e.kind) : e.label);
        break;
      case EventKind::kTermination:
        args["rounds"] = e.value;
        args["converged"] = e.flag;
        name = to_string(e.kind);
        break;
      case EventKind::kFault:
      case EventKind::kRepair:
      case EventKind::kTimeline:
        args["value"] = e.value;
        name = std::string(e.label.empty() ? to_string(e.kind) : e.label);
        break;
    }
    JsonObject instant;
    instant["name"] = std::move(name);
    instant["ph"] = "i";
    instant["s"] = "t";
    instant["pid"] = kPid;
    instant["tid"] = instant_track(e.kind);
    instant["ts"] = ts;
    instant["args"] = std::move(args);
    trace_events.push_back(std::move(instant));
  }

  JsonObject other;
  other["schema"] = "dmra-trace/1";
  other["metrics"] = recorder.metrics().deterministic_json();

  JsonObject root;
  root["traceEvents"] = std::move(trace_events);
  root["displayTimeUnit"] = "ms";
  root["otherData"] = std::move(other);
  return JsonValue(std::move(root)).dump(1) + "\n";
}

}  // namespace dmra::obs
