// The protocol engine behind both message-passing runtimes: Alg. 1 run by
// UE, SP and BS agents over one MessageBus, restricted to a scope of
// member UEs and BSs. run_decentralized_dmra scopes it to every agent;
// run_sharded_dmra runs it once per region. Not part of the public core
// API.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/decentralized.hpp"
#include "core/preference.hpp"
#include "mec/ids.hpp"
#include "mec/scenario.hpp"
#include "obs/metrics.hpp"

namespace dmra::runtime_detail {

/// The agents one engine run covers. Agent state is indexed by scope
/// position; messages and the fault schedule name agents by global id and
/// are routed through global→scope index maps.
struct ProtocolScope {
  std::span<const UeId> ues;  ///< member UEs, ids ascending
  std::span<const BsId> bss;  ///< member BSs, ids ascending; must hold
                              ///< every candidate of every member UE
  /// Round-row and audit source, e.g. "core/decentralized". Static storage.
  std::string_view source;
  /// Label of the bootstrap phase event. Static storage.
  std::string_view bootstrap_label;
};

/// One engine run's outcome. The allocation is the run's own: it holds
/// only member UEs, so per-round audits and trace rows see the scope alone.
struct ProtocolRun {
  DecentralizedResult result;
  bool converged = false;  ///< the round loop ended quiet, not at its limit
};

/// What a UE holds of one candidate's levels, per candidate slot
/// (Scenario::candidate_offset): the CRUs of its service, the RRBs, and
/// the stamp of their publication (0 = the BS's static capacity).
struct HeldLevels {
  std::uint32_t crus = 0, rrbs = 0, stamp = 0;
};

/// Run the protocol over `scope` to completion. Every SP registers a relay
/// on the run's bus (SPs are operators, not places), and every BS has a
/// broadcast channel on it. A BS publishes its levels on its channel; a
/// UE reads every candidate's channel while it seeks, only its serving
/// BS's channel while matched under a plan with outages, and nothing
/// otherwise. `views` (one HeldLevels per candidate slot) and `b_u` are
/// shared with concurrent runs over disjoint scopes: a run writes only
/// its member UEs' slots and rows. Records phases, rounds and faults to
/// the calling thread's recorders, but not termination or run metrics:
/// those belong to the entry point, which may merge several runs.
ProtocolRun run_protocol(const Scenario& scenario, const DmraConfig& config,
                         const NetworkConditions& net, const ProtocolScope& scope,
                         std::vector<HeldLevels>& views, LiveCandidates& b_u);

/// Fold a MessageMix into the registry as msg.* counters, beside the bus.*
/// counters obs::publish_bus_stats writes.
void publish_message_mix(const MessageMix& mix, obs::MetricsRegistry& registry);

}  // namespace dmra::runtime_detail
