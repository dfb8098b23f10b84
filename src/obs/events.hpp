// Typed per-round trace events emitted by the matching runtime.
//
// The decentralized protocol, the direct solver, and the serving loop
// (the incremental allocator under sim/churn) all narrate their progress
// as a stream of these events plus one RoundRow per proposal round. The
// stream is purely *logical*: no wall-clock timestamps, so a seeded run
// produces a byte-identical trace every time and exports can be
// golden-tested (docs/OBSERVABILITY.md). Wall-clock measurements live in
// the MetricsRegistry (obs/metrics.hpp) instead, outside the golden
// surface.
#pragma once

#include <cstdint>
#include <string_view>

namespace dmra::obs {

/// What happened. One enumerator per protocol-level occurrence the
/// tracer narrates; RoundRow aggregates them per round.
enum class EventKind : std::uint8_t {
  kProposal,      ///< UE proposed to a BS (value = reported f_u)
  kDecision,      ///< BS decided a proposal (flag = accept, reason, key)
  kTrimEviction,  ///< radio-budget trim evicted a selected winner
  kBroadcast,     ///< BS published its resource levels (value = stamp on its channel)
  kPhase,         ///< named lifecycle marker (label, value = detail)
  kTermination,   ///< run ended (value = rounds, flag = converged)
  kFault,         ///< injected fault fired (label = class, bs/ue, value = round)
  kRepair,        ///< recovery action taken (label = action, bs/ue, value = detail)
  kTimeline,      ///< serving-timeline event (label = kind, ue/bs, value = index)
};
inline constexpr std::size_t kNumEventKinds = 9;

/// Why a proposal was (not) admitted in the BS acceptance step.
enum class DecisionReason : std::uint8_t {
  kAccepted,      ///< won its service's tiebreak and survived the trim
  kLostTiebreak,  ///< feasible, but another proposer had a better key
  kInfeasible,    ///< BS could not honour the demand (CRUs or RRBs)
  kTrimmed,       ///< won its service, evicted by the radio-budget trim
};

std::string_view to_string(EventKind kind);
std::string_view to_string(DecisionReason reason);

/// The BS-side lexicographic preference of Alg. 1 (smaller wins): see
/// core/preference.cpp. Rejections carry the *loser's* key so slow
/// convergence can be attributed to a specific tiebreak level.
struct TiebreakKey {
  bool cross_sp = false;
  std::uint32_t f_u = 0;        ///< covering-BS count the UE reported
  std::uint32_t footprint = 0;  ///< n(u,i) + c_j^u
  std::uint32_t ue = 0;
};

/// Sentinel for "field not meaningful for this event kind".
inline constexpr std::uint32_t kNoId = 0xffffffffu;

struct TraceEvent {
  EventKind kind = EventKind::kPhase;
  DecisionReason reason = DecisionReason::kAccepted;
  bool flag = false;             ///< kDecision: accept; kTermination: converged
  std::uint32_t ue = kNoId;      ///< UeId::value
  std::uint32_t bs = kNoId;      ///< BsId::value
  std::uint32_t service = kNoId; ///< ServiceId::value
  std::uint64_t value = 0;       ///< kind-specific scalar (see EventKind)
  TiebreakKey key{};             ///< kDecision reject / kTrimEviction
  /// kPhase only. Must point at storage outliving the recorder (string
  /// literals at the instrumentation sites).
  std::string_view label;

  // Stamped by TraceRecorder::record(); producers leave these alone.
  std::uint64_t round = 0;  ///< producer round/epoch (set_round)
  std::uint64_t slot = 0;   ///< logical timeline slot (= rows emitted so far)
  std::uint64_t seq = 0;    ///< order within the slot
};

/// One proposal round (or serving event) of aggregate metrics — the rows
/// of the per-round CSV exporter and the slices of the Chrome trace.
struct RoundRow {
  /// Instrumentation site, e.g. "core/solver", "core/decentralized",
  /// "sim/churn". Same storage rule as TraceEvent::label.
  std::string_view source;
  std::uint64_t round = 0;
  std::uint64_t proposals = 0;
  std::uint64_t accepts = 0;
  std::uint64_t rejects = 0;
  std::uint64_t trim_evictions = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t messages = 0;       ///< bus messages sent during the round
  std::uint64_t receptions = 0;     ///< channel reads that brought newer levels (not in the CSV)
  std::uint64_t unmatched_ues = 0;  ///< still seeking (not matched, not at cloud)
  double cumulative_profit = 0.0;   ///< Eq. 11 profit of the partial allocation
  std::uint64_t cru_headroom = 0;   ///< remaining CRUs summed over BSs/services
  std::uint64_t rrb_headroom = 0;   ///< remaining RRBs summed over BSs
};

}  // namespace dmra::obs
