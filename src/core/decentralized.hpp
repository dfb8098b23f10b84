// The decentralized DMRA runtime: Alg. 1 executed by message-passing
// agents, the way the paper's system would actually run.
//
// Roles (paper Fig. 1):
//  * UE agents hold only their own demand, their candidate list, and the
//    resource levels they last read from their covering BSs; they pick
//    proposals from that local view (Eq. 17) and route them through their
//    SP.
//  * SP agents are the mandatory middle layer: they relay offload requests
//    up to BSs and decisions back down to UEs (a UE never talks to a BS
//    directly — §III-A).
//  * BS agents know only their own remaining CRUs/RRBs; each round they
//    apply the Alg. 1 acceptance rule to the proposals in their inbox,
//    reply accept/reject, and broadcast their new resource levels: one
//    publication on their channel of the bus (net/bus.hpp), however many
//    UEs read it.
//
// The decision logic is the shared code in core/preference.hpp and every
// decision is order-independent, so this runtime provably computes the
// same allocation as the direct solver — tests/core/decentralized_test.cpp
// asserts exact equality across seeds.
//
// One engine, two entry points: run_decentralized_dmra runs the protocol
// engine (core/runtime_detail.hpp) over every UE and BS on one bus;
// run_sharded_dmra runs the same engine once per region, each over its
// region's member UEs and BSs on a bus of its own. An engine run's
// agents are exactly its scope's members plus every SP's relay. A UE
// reads the channels of its candidates (Scenario::candidates) while it is
// still seeking, and stops once it is matched or at the cloud: a settled
// UE never uses the levels again. MessageMix counts the messages of each
// kind and hop, and the receptions.
//
// Fault tolerance: attach a FaultPlan (net/fault_plan.hpp) through
// NetworkConditions::faults and the runtime survives message loss,
// duplication, delay, BS crashes, and capacity degradation — safe (always
// a feasible allocation, no double-commit) and live (terminates). The
// plan alone decides what is armed: every plan arms re-acks and
// every-round publications (a lost read heals at the next one), and only
// BS outages add crash recovery — a matched UE keeps reading its serving
// BS's channel as a heartbeat — and a final repair pass. With link faults
// each channel read takes its own loss and delay draws.
// docs/RESILIENCE.md documents the full model; with no plan (or a
// fault-free one) the run is byte-identical to the unhardened runtime
// (golden-tested).
#pragma once

#include <cstdint>

#include "core/preference.hpp"
#include "core/solver.hpp"
#include "net/fault_plan.hpp"
#include "net/stats.hpp"

namespace dmra {

/// What the fault machinery injected and what the recovery machinery won
/// back. All zeros when no fault plan was attached; the crash-recovery
/// counters stay zero unless the plan schedules BS outages.
struct FaultRecoveryStats {
  std::uint64_t bs_crashes = 0;            ///< scheduled crashes applied
  std::uint64_t bs_recoveries = 0;         ///< scheduled recoveries applied
  std::uint64_t capacity_degradations = 0; ///< scheduled degradations applied
  std::uint64_t orphaned_ues = 0;          ///< admissions voided by crashes
  std::uint64_t reproposals = 0;           ///< proposals re-sent after a silent round trip
  std::uint64_t presumed_dead = 0;         ///< (UE, BS) candidate links given up on
  std::uint64_t suspected_serving_bs = 0;  ///< matched UEs that re-entered on silence
  std::uint64_t repaired_in_protocol = 0;  ///< orphans re-admitted by the live protocol
  std::uint64_t repaired_by_rematch = 0;   ///< orphans re-placed by the final repair pass
  std::uint64_t cloud_fallbacks = 0;       ///< orphans left at the cloud (degradation floor)
  std::uint64_t repair_rounds = 0;         ///< matching rounds the repair pass ran
  double recovered_profit = 0.0;           ///< Eq. 5 profit of re-placed orphans
};

/// Heap-allocation accounting for the protocol's round loop, sampled from
/// util/alloc_hook.hpp. Only meaningful when the running binary installed
/// a counting probe (perf_report and the zero-allocation test link the
/// dmra_alloc_count overrides); otherwise measured stays false and the
/// sampling costs one branch per round. Deterministic: counts operator
/// new calls on this thread, not bytes or malloc internals.
struct AllocCounters {
  bool measured = false;             ///< a counting probe was installed
  std::uint64_t settle_rounds = 0;   ///< warmup rounds excluded from steady state
  std::uint64_t steady_state_allocations = 0;  ///< allocations in rounds >= settle_rounds
  std::uint64_t total_allocations = 0;         ///< allocations across the whole round loop
};

/// The protocol's messages by kind and hop. Every send is counted once
/// here, so the send fields sum to BusStats::messages_sent (dropped sends
/// included; duplicate copies the network injects are not sends).
struct MessageMix {
  std::uint64_t requests_ue_sp = 0;   ///< offload requests, UE → its SP
  std::uint64_t proposals_sp_bs = 0;  ///< relayed proposals, SP → BS
  std::uint64_t decisions_bs_sp = 0;  ///< accept/reject, BS → the UE's SP
  std::uint64_t decisions_sp_ue = 0;  ///< relayed decisions, SP → UE
  /// Resource levels a BS posts on its broadcast channel, one send each
  /// however many UEs read it: the bootstrap, each round it answers
  /// proposals, and every round under a fault plan.
  std::uint64_t publications = 0;
  /// Channel reads that brought a UE levels newer than it held. Not sends:
  /// left out of total().
  std::uint64_t receptions = 0;

  std::uint64_t total() const {
    return requests_ue_sp + proposals_sp_bs + decisions_bs_sp + decisions_sp_ue + publications;
  }
  /// Field-wise sum, for merging several engine runs.
  MessageMix& operator+=(const MessageMix& o) {
    requests_ue_sp += o.requests_ue_sp;
    proposals_sp_bs += o.proposals_sp_bs;
    decisions_bs_sp += o.decisions_bs_sp;
    decisions_sp_ue += o.decisions_sp_ue;
    publications += o.publications;
    receptions += o.receptions;
    return *this;
  }
};

/// DmraResult plus the communication cost of reaching it.
struct DecentralizedResult {
  DmraResult dmra;  ///< allocation + convergence diagnostics
  BusStats bus;     ///< message-bus traffic, incl. fault-injected drops/dups/delays
  MessageMix messages;  ///< the same sends, split by kind and hop
  /// Fault and recovery accounting; all zeros without a fault plan.
  FaultRecoveryStats recovery;
  /// Round-loop heap-allocation accounting (see AllocCounters).
  AllocCounters alloc;
};

/// Optional network impairment for the protocol run. Under any fault plan
/// the protocol stays safe (no double-commit, always a feasible
/// allocation) and live (terminates), at the cost of allocation quality:
/// BSs re-ack duplicate proposals idempotently, publish their resource
/// levels every round, and UEs fall back to the static BS capacities for
/// candidates they have not heard from yet.
struct NetworkConditions {
  /// Seed for the bus's fault streams (drop/duplicate/delay draws).
  std::uint64_t seed = 0;
  /// Optional fault schedule (not owned; must outlive the run). nullptr —
  /// or a plan with FaultPlan::any() == false — leaves the runtime on its
  /// reliable path, bit-identical to the direct solver. A lossy network is
  /// a plan with only FaultPlan::link set.
  const FaultPlan* faults = nullptr;
};

/// Run the message-passing DMRA protocol to completion. Deterministic for
/// a fixed (scenario, config, net) triple, including under faults.
DecentralizedResult run_decentralized_dmra(const Scenario& scenario,
                                           const DmraConfig& config = {},
                                           const NetworkConditions& net = {});

// ---- Region-sharded runtime ------------------------------------------------

/// How to shard a run_sharded_dmra call. The partition itself is derived
/// from the scenario (mec/scenario.hpp: partition_regions).
struct ShardConfig {
  /// Number of spatial regions / worker shards. Clamped to
  /// [1, max(1, |B|)] by the partition; 1 reproduces the single-bus
  /// allocation exactly.
  std::size_t num_shards = 1;
  /// Worker threads for the shard fan-out: 0 = hardware concurrency,
  /// 1 = run shards inline on the calling thread. The result is
  /// byte-identical for every value (obs::traced_parallel_map contract).
  std::size_t jobs = 1;
};

/// What the shard pass and the reconcile pass did. The boundary counters
/// are semantic outputs: tools/bench_diff.py fails a perf diff that moves
/// them (they change only when the partition or the protocol changes).
struct ShardStats {
  std::size_t num_shards = 0;        ///< regions actually used (post-clamp)
  std::size_t jobs = 0;              ///< resolved worker count
  std::size_t interior_ues = 0;      ///< UEs matched inside one shard
  std::size_t boundary_ues = 0;      ///< UEs whose candidates straddle a cut
  std::size_t cloud_only_ues = 0;    ///< UEs with no candidates at all
  std::size_t boundary_ues_reconciled = 0;  ///< boundary UEs the reconcile pass placed
  std::size_t reconcile_rounds = 0;  ///< matching rounds of the reconcile pass
  std::size_t max_shard_rounds = 0;  ///< deepest shard's protocol rounds
  std::vector<std::size_t> rounds_per_shard;  ///< indexed by region
};

/// DmraResult plus the aggregated communication cost and shard accounting.
struct ShardedResult {
  DmraResult dmra;   ///< merged allocation + summed convergence diagnostics
  BusStats bus;      ///< field-wise sum over the per-shard buses
  MessageMix messages;  ///< field-wise sum over the shards
  ShardStats shard;  ///< partition + reconcile accounting
  /// Round-loop heap-allocation accounting, summed over the shards. A
  /// probe counts the calling thread only, so it means something at
  /// jobs = 1.
  AllocCounters alloc;
};

/// Run DMRA as parallel region-local protocols over per-shard message
/// buses, then reconcile boundary UEs deterministically.
///
/// The arena is partitioned into `shard.num_shards` vertical strips
/// (partition_regions); each region runs the protocol engine scoped to its
/// interior UEs — candidates all in one region — and its BSs, on its own
/// MessageBus (every SP registers a relay on every bus — SPs are
/// operators, not places), in parallel across shards with no shared
/// mutable state. Each region's run owns its allocation, so under
/// DMRA_AUDIT the per-round ledger audit covers shards too. Boundary UEs
/// sit out the shard pass and are matched afterwards by a deterministic
/// single-threaded solve_dmra_partial against the residual post-shard
/// resources, so every shard count yields a feasible allocation and
/// num_shards == 1 is bit-identical to the single-bus oracle, round rows
/// included (tests/core/sharded_test.cpp). For num_shards > 1 the profit
/// may differ from the oracle only through boundary UEs being matched
/// after interior ones — a bounded, measured gap (docs/PERFORMANCE.md).
///
/// Deterministic for a fixed (scenario, config, num_shards) triple and
/// every jobs value. Fault injection is not supported on the sharded
/// path (the single-bus runtime is the fault-tolerance story); there is
/// deliberately no NetworkConditions parameter.
ShardedResult run_sharded_dmra(const Scenario& scenario, const DmraConfig& config = {},
                               const ShardConfig& shard = {});

}  // namespace dmra
