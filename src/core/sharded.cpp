// Region-sharded decentralized DMRA: the arena is cut into vertical
// strips, each strip runs the protocol engine (core/runtime_detail.hpp)
// over its own members and MessageBus in a worker shard, and boundary
// UEs — whose candidate sets straddle a cut — are matched afterwards in
// one deterministic reconcile pass against the residual resources.
//
// Parallel-safety inventory (everything a shard touches concurrently):
//  * Scenario, RegionPartition — immutable, shared read-only.
//  * views — flat per-candidate-slot HeldLevels; a slot belongs to
//    exactly one UE and an interior UE to exactly one shard, so writes are
//    disjoint by construction.
//  * LiveCandidates — per-UE rows in a flat pool; same disjointness.
//  * Everything else (bus and its channels, agents, workspaces, the run's
//    own allocation) is local to the engine run.
// No locks, no atomics; the parallel_map barrier publishes all writes.
//
// Determinism: shard outcomes are merged in region order and the
// reconcile pass is single-threaded, so the result is identical for
// every `jobs` value; tracing goes through obs::TraceShards, which makes
// the merged trace byte-identical too (same contract as sim/experiment).

#include "core/decentralized.hpp"

#include <algorithm>
#include <string>

#include "core/runtime_detail.hpp"
#include "mec/audit.hpp"
#include "mec/resources.hpp"
#include "obs/recorder.hpp"
#include "obs/shard.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace dmra {

ShardedResult run_sharded_dmra(const Scenario& scenario, const DmraConfig& config,
                               const ShardConfig& shard) {
  DMRA_REQUIRE(config.rho >= 0.0);
  const std::size_t nu = scenario.num_ues();
  const RegionPartition part = partition_regions(scenario, shard.num_shards);
  const std::size_t nr = part.num_regions;
  const std::size_t jobs =
      shard.jobs == 0 ? ThreadPool::hardware_concurrency() : shard.jobs;

  ShardedResult result;
  result.dmra.allocation = Allocation(nu);
  result.shard.num_shards = nr;
  result.shard.jobs = jobs;
  result.shard.interior_ues = part.region_ues.size();
  result.shard.boundary_ues = part.boundary_ues.size();
  result.shard.cloud_only_ues = part.cloud_ues.size();

  // Shared-by-disjoint-writes state (see the file comment).
  std::vector<runtime_detail::HeldLevels> views(scenario.num_candidate_slots());
  LiveCandidates b_u;
  b_u.build(scenario, part.region_ues);

  const NetworkConditions reliable;
  std::vector<runtime_detail::ProtocolRun> runs = obs::traced_parallel_map(
      jobs, nr, [&](std::size_t region) {
        // A region without UEs can match nothing; skip the bus entirely.
        if (part.ues_in(region).empty()) return runtime_detail::ProtocolRun{};
        return runtime_detail::run_protocol(
            scenario, config, reliable,
            {part.ues_in(region), part.bss_in(region), "core/sharded",
             "core/sharded:bootstrap"},
            views, b_u);
      });

  // ---- Merge in region order (deterministic for every jobs value).
  result.shard.rounds_per_shard.reserve(nr);
  for (std::size_t r = 0; r < nr; ++r) {
    const DecentralizedResult& o = runs[r].result;
    for (const UeId u : part.ues_in(r))
      if (const auto bs = o.dmra.allocation.bs_of(u)) result.dmra.allocation.assign(u, *bs);
    result.dmra.proposals_sent += o.dmra.proposals_sent;
    result.dmra.rejections += o.dmra.rejections;
    result.shard.rounds_per_shard.push_back(o.dmra.rounds);
    result.shard.max_shard_rounds = std::max(result.shard.max_shard_rounds, o.dmra.rounds);
    result.bus += o.bus;
    result.messages += o.messages;
    result.alloc.measured = result.alloc.measured || o.alloc.measured;
    result.alloc.settle_rounds = std::max(result.alloc.settle_rounds, o.alloc.settle_rounds);
    result.alloc.steady_state_allocations += o.alloc.steady_state_allocations;
    result.alloc.total_allocations += o.alloc.total_allocations;
  }
  result.dmra.rounds = result.shard.max_shard_rounds;

  // ---- Reconcile: boundary UEs are matched against whatever the shards
  // left, by the same Alg. 1 decision code running single-threaded. The
  // pass is deterministic (fixed UE order, fixed residual state), so the
  // whole run is reproducible for any shard count.
  if (!part.boundary_ues.empty()) {
    ResourceState state(scenario);
    for (std::size_t ui = 0; ui < nu; ++ui) {
      const UeId u{static_cast<std::uint32_t>(ui)};
      if (const auto bs = result.dmra.allocation.bs_of(u))
        state.commit(u, *bs, scenario.candidate_rrbs(u, *bs));
    }
    DmraResult reconcile;
    {
      // Same muting the repair pass uses: the partial solver's ledger
      // reports are relative to a mid-run state the auditor cannot
      // recount; the merged allocation is re-audited manually below.
      audit::ScopedAuditObserver mute(nullptr);
      reconcile = solve_dmra_partial(scenario, config, state, result.dmra.allocation,
                                     part.boundary_ues);
    }
    result.shard.reconcile_rounds = reconcile.rounds;
    result.dmra.proposals_sent += reconcile.proposals_sent;
    result.dmra.rejections += reconcile.rejections;
    for (const UeId u : part.boundary_ues)
      if (!result.dmra.allocation.is_cloud(u)) ++result.shard.boundary_ues_reconciled;
  }

  if (DMRA_AUDIT_ACTIVE()) {
    audit::RoundContext ctx;  // feasibility-only: no single ledger spans shards
    ctx.scenario = &scenario;
    ctx.allocation = &result.dmra.allocation;
    ctx.round = 0;
    ctx.source = "core/sharded";
    audit::observer()->on_round(ctx);
  }

  obs::TraceRecorder* const rec = obs::recorder();
  if (rec != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kPhase;
    e.label = "core/sharded:reconcile";
    e.value = part.boundary_ues.size();
    rec->record(e);
    obs::TraceEvent t;
    t.kind = obs::EventKind::kTermination;
    t.flag = true;
    t.value = result.dmra.rounds;
    t.label = "core/sharded";
    rec->record(t);
    obs::publish_bus_stats(result.bus, rec->metrics());
    runtime_detail::publish_message_mix(result.messages, rec->metrics());
    obs::MetricsRegistry& m = rec->metrics();
    m.add_counter("shard.num_shards", result.shard.num_shards);
    m.add_counter("shard.interior_ues", result.shard.interior_ues);
    m.add_counter("shard.boundary_ues", result.shard.boundary_ues);
    m.add_counter("shard.cloud_only_ues", result.shard.cloud_only_ues);
    m.add_counter("shard.boundary_ues_reconciled", result.shard.boundary_ues_reconciled);
    m.add_counter("shard.reconcile_rounds", result.shard.reconcile_rounds);
    m.add_counter("shard.max_shard_rounds", result.shard.max_shard_rounds);
  }
  if (obs::FlightRecorder* const fr = obs::flight(); fr != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kPhase;
    e.label = "core/sharded:reconcile";
    e.value = part.boundary_ues.size();
    fr->record(e);
    obs::TraceEvent t;
    t.kind = obs::EventKind::kTermination;
    t.flag = true;
    t.value = result.dmra.rounds;
    t.label = "core/sharded";
    fr->record(t);
    obs::publish_bus_stats(result.bus, fr->metrics());
    runtime_detail::publish_message_mix(result.messages, fr->metrics());
    obs::MetricsRegistry& m = fr->metrics();
    m.add_counter("shard.num_shards", result.shard.num_shards);
    m.add_counter("shard.boundary_ues_reconciled", result.shard.boundary_ues_reconciled);
    m.add_counter("shard.reconcile_rounds", result.shard.reconcile_rounds);
    // Per-region series, labeled for the Prometheus exposition
    // (obs/exposition.hpp): the flight registry is a new surface with no
    // goldens, so the labeled names live here and not in the trace
    // registry above.
    std::string name;
    for (std::size_t r = 0; r < result.shard.rounds_per_shard.size(); ++r) {
      name = "shard.rounds{shard=\"" + std::to_string(r) + "\"}";
      m.add_counter(name, result.shard.rounds_per_shard[r]);
    }
  }
  return result;
}

}  // namespace dmra
