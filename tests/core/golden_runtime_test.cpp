// Golden byte-identity fingerprints for the decentralized runtime.
//
// ISSUE 7 / ROADMAP item 2 reworks the MessageBus into pooled storage
// with batch-drained flat inboxes and restructures the matching loops
// into SoA passes. The acceptance bar is *byte-identical per-seed
// behavior*: same bus rounds, same message counts, same profit bits,
// and the same trace/CSV export bytes as the pre-rework runtime. These
// fingerprints were generated from the seed-era (pre-pooling) code and
// must never drift — a mismatch means the rework changed observable
// behavior, not just performance.
//
// Two probes per seed:
//  * decentralized — fault-free protocol run with a trace recorder
//    installed (hashes cover the Chrome-trace JSON and round CSV bytes),
//  * faulted       — loss+crash+degradation plan (dup/delay are
//    bus-level mechanisms, pinned by BusFaultStreamPinned), recovery
//    counters included, so the fault-path draw order is pinned too.
//
// ServingByteIdenticalAcrossSeeds adds a serving probe per seed: one
// run_churn replay (over capacity, waypoint moves, one crash/recover,
// short readmit period), pinning the event-log bytes and the readmission
// outcome, so a rework of the serving loop is held to the same bar.
// SaturatedServingByteIdentical does the same at the density where the
// readmit sweep costs: serve_saturated's load on the dense deployment,
// with and without a crash and recovery.
//
// ShardedByteIdenticalAcrossSeeds does the same for run_sharded_dmra:
// two deployments per seed, pinning the allocation, profit bits, traffic
// and round counters, and the reconcile pass's outcome.
//
// LinkFaultPlansByteIdenticalAcrossSeeds pins the protocol under plans
// without outages (loss only; loss + duplication + delay), which arm no
// crash recovery: bus traffic, proposals, profit bits, and recovery
// counters that must stay zero.
//
// TimelineByteIdenticalAcrossWorkloads pins build_churn_timeline on its
// own: the event sequence and the slot universe's link and candidate
// rows, bit for bit, on the benchmark's serving workloads.
//
// Regenerating (only legitimate after an intentional semantic change):
//   DMRA_GOLDEN_REGEN=1 ./build/tests/core_test
//     --gtest_filter='GoldenRuntime.*' 2>/dev/null
// then paste the printed rows over kGolden below and say why in the PR.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include <vector>

#include "../test_util.hpp"
#include "core/decentralized.hpp"
#include "net/bus.hpp"
#include "core/solver.hpp"
#include "mec/allocation.hpp"
#include "mec/audit.hpp"
#include "obs/recorder.hpp"
#include "sim/churn.hpp"
#include "sim/faults.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

constexpr std::size_t kUes = 300;
constexpr int kSeeds = 10;

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a_words(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t profit_bits(const Scenario& s, const Allocation& a) {
  return std::bit_cast<std::uint64_t>(total_profit(s, a));
}

struct GoldenRow {
  std::uint64_t seed;
  // Fault-free decentralized run (with tracing installed).
  std::uint64_t dec_bus_rounds;
  std::uint64_t dec_messages_sent;
  std::uint64_t dec_matching_rounds;
  std::uint64_t dec_profit_bits;
  std::uint64_t dec_trace_hash;  ///< FNV-1a of to_chrome_trace_json()
  std::uint64_t dec_csv_hash;    ///< FNV-1a of to_round_csv()
  // Faulted decentralized run (loss+crash+degrade).
  std::uint64_t flt_bus_rounds;
  std::uint64_t flt_messages_sent;
  std::uint64_t flt_dropped;
  std::uint64_t flt_duplicated;
  std::uint64_t flt_delayed;
  std::uint64_t flt_orphaned;
  std::uint64_t flt_cloud_fallbacks;
  std::uint64_t flt_profit_bits;
};

GoldenRow run_probes(std::uint64_t seed) {
  GoldenRow row{};
  row.seed = seed;

  ScenarioConfig cfg;
  cfg.num_ues = kUes;
  const Scenario s = generate_scenario(cfg, seed);

  {
    obs::TraceRecorder rec;
    obs::ScopedTraceRecorder install(&rec);
    const DecentralizedResult dec = run_decentralized_dmra(s);
    row.dec_bus_rounds = dec.bus.rounds;
    row.dec_messages_sent = dec.bus.messages_sent;
    row.dec_matching_rounds = dec.dmra.rounds;
    row.dec_profit_bits = profit_bits(s, dec.dmra.allocation);
    row.dec_trace_hash = fnv1a(rec.to_chrome_trace_json());
    row.dec_csv_hash = fnv1a(rec.to_round_csv());
  }

  {
    // Protocol-level faults: loss + crash/recovery + degradation (the
    // full decentralized fault surface; duplication/delay are bus-level
    // mechanisms pinned separately by BusFaultStreamPinned below).
    FaultSpec spec;
    spec.loss = 0.08;
    spec.crashes = 2;
    spec.crash_round = 3;
    spec.down_rounds = 6;
    spec.degradations = 1;
    spec.seed = seed;
    const FaultPlan plan = make_fault_plan(spec, s.num_bss());
    NetworkConditions net;
    net.seed = seed;
    net.faults = &plan;
    const DecentralizedResult flt = run_decentralized_dmra(s, {}, net);
    row.flt_bus_rounds = flt.bus.rounds;
    row.flt_messages_sent = flt.bus.messages_sent;
    row.flt_dropped = flt.bus.messages_dropped;
    row.flt_duplicated = flt.bus.messages_duplicated;
    row.flt_delayed = flt.bus.messages_delayed;
    row.flt_orphaned = flt.recovery.orphaned_ues;
    row.flt_cloud_fallbacks = flt.recovery.cloud_fallbacks;
    row.flt_profit_bits = profit_bits(s, flt.dmra.allocation);
  }
  return row;
}

void print_row(const GoldenRow& r) {
  std::printf(
      "    {%lluull, %lluull, %lluull, %lluull, 0x%llxull, 0x%llxull, "
      "0x%llxull,\n"
      "     %lluull, %lluull, %lluull, %lluull, %lluull, %lluull, %lluull, "
      "0x%llxull},\n",
      static_cast<unsigned long long>(r.seed),
      static_cast<unsigned long long>(r.dec_bus_rounds),
      static_cast<unsigned long long>(r.dec_messages_sent),
      static_cast<unsigned long long>(r.dec_matching_rounds),
      static_cast<unsigned long long>(r.dec_profit_bits),
      static_cast<unsigned long long>(r.dec_trace_hash),
      static_cast<unsigned long long>(r.dec_csv_hash),
      static_cast<unsigned long long>(r.flt_bus_rounds),
      static_cast<unsigned long long>(r.flt_messages_sent),
      static_cast<unsigned long long>(r.flt_dropped),
      static_cast<unsigned long long>(r.flt_duplicated),
      static_cast<unsigned long long>(r.flt_delayed),
      static_cast<unsigned long long>(r.flt_orphaned),
      static_cast<unsigned long long>(r.flt_cloud_fallbacks),
      static_cast<unsigned long long>(r.flt_profit_bits));
}

// Fingerprints generated from the pre-pooling runtime (see header). The
// dec_messages_sent, dec_trace_hash and dec_csv_hash columns were
// re-pinned when resource levels moved onto per-BS broadcast channels (a
// publication is one message, settled UEs stop reading, the traces carry
// msg.publications and msg.receptions), and the flt_* columns with them:
// the faulted run no longer sends level envelopes, so every later loss
// draw shifts, and channel reads draw from their own stream. Every
// dec_* round and profit column is the pre-pooling value.
constexpr GoldenRow kGolden[kSeeds] = {
    {1ull, 26ull, 2603ull, 6ull, 0x40abb753a2515433ull, 0x7899b7ae1dcd40bdull, 0x813bc9c02dfe7b23ull,
     82ull, 3237ull, 222ull, 0ull, 0ull, 15ull, 0ull, 0x40ab6e7c9caa5432ull},
    {2ull, 26ull, 2587ull, 6ull, 0x40ac49fe580e3a9cull, 0xd7042f09e326db3full, 0xdd815f00eb2f6a96ull,
     78ull, 3335ull, 232ull, 0ull, 0ull, 29ull, 0ull, 0x40ac25edc266e098ull},
    {3ull, 26ull, 2580ull, 6ull, 0x40abe812b0115557ull, 0xe443ac3d4e03f5aaull, 0x5009e773f6b96a0ull,
     74ull, 3157ull, 200ull, 0ull, 0ull, 20ull, 0ull, 0x40abba16551e287aull},
    {4ull, 30ull, 2635ull, 7ull, 0x40ac5d895fe42c9aull, 0x3c90c71511bffe1bull, 0xedb51c80b4030614ull,
     78ull, 3472ull, 228ull, 0ull, 0ull, 29ull, 0ull, 0x40ac27f41ea44d71ull},
    {5ull, 30ull, 2670ull, 7ull, 0x40acc0d13b25345aull, 0xaeac982d3c773859ull, 0x34cee06b8dcd0e02ull,
     86ull, 3339ull, 246ull, 0ull, 0ull, 21ull, 0ull, 0x40ac7c7a7891877bull},
    {6ull, 34ull, 2669ull, 8ull, 0x40acb00b910906d7ull, 0x1ae08421e92ed72dull, 0x9eb1f0b5ef7ffdf7ull,
     74ull, 3323ull, 212ull, 0ull, 0ull, 19ull, 0ull, 0x40ac776df6d8e190ull},
    {7ull, 30ull, 2673ull, 7ull, 0x40ac750fb384d2b8ull, 0x8fc36507a321bdc6ull, 0x45fcd26f081c5399ull,
     70ull, 3153ull, 229ull, 0ull, 0ull, 16ull, 0ull, 0x40ac3b88b4fe0e68ull},
    {8ull, 22ull, 2496ull, 5ull, 0x40ac04c4f46a04abull, 0x75c9631824163b07ull, 0x2bbb21004efc94b6ull,
     78ull, 3178ull, 202ull, 0ull, 0ull, 19ull, 0ull, 0x40abd1aeeaf83f94ull},
    {9ull, 38ull, 2598ull, 9ull, 0x40ac3710295753fcull, 0x295cdcd20bd0ec21ull, 0x1b968e2ac5b7eec0ull,
     82ull, 3314ull, 235ull, 0ull, 0ull, 24ull, 0ull, 0x40ac014085530f27ull},
    {10ull, 34ull, 2785ull, 8ull, 0x40ac02b7df96341eull, 0xb5add3e5fbe9dd85ull, 0xc6b2166dac8b2507ull,
     78ull, 3423ull, 248ull, 0ull, 0ull, 18ull, 0ull, 0x40abdb274c659d8eull},
};

// Serving probe: test::serving_probe_config (tests/test_util.hpp), a
// run_churn replay with readmit sweeps and one BS crash.
struct GoldenServingRow {
  std::uint64_t seed;
  std::uint64_t log_hash;  ///< FNV-1a of ChurnResult::event_log
  std::uint64_t readmitted;
  std::uint64_t orphaned;
  std::uint64_t final_cloud;
  std::uint64_t final_profit_bits;
};

ChurnResult run_serving_probe(std::uint64_t seed) {
  return run_churn(test::serving_probe_config(seed));
}

// Generated from the serving loop whose readmit sweep scanned every slot
// of the universe; the waiting-set walk must reproduce it byte for byte.
constexpr GoldenServingRow kGoldenServing[kSeeds] = {
    {1ull, 0x98298d3e21b6bc3eull, 99ull, 38ull, 209ull, 0x40adb6538f6cac4dull},
    {2ull, 0xe425883ee16cd86bull, 90ull, 36ull, 250ull, 0x40b0750cecd59607ull},
    {3ull, 0xa11c7721afd34e7cull, 132ull, 36ull, 186ull, 0x40b05ee0e76fe58full},
    {4ull, 0x9ad43659ba35a932ull, 95ull, 37ull, 258ull, 0x40ae61043b5d3835ull},
    {5ull, 0x8a6b4134e53b3a04ull, 115ull, 36ull, 223ull, 0x40afc625544cd2deull},
    {6ull, 0xa7ecb13922e91944ull, 110ull, 39ull, 224ull, 0x40af149b855c64fcull},
    {7ull, 0x6918c4fd3e5577adull, 118ull, 33ull, 213ull, 0x40adb3c046102229ull},
    {8ull, 0xf47dc31b908ec9c6ull, 110ull, 37ull, 247ull, 0x40afc0a5d3a6822full},
    {9ull, 0x5d88ffdcaa91adf9ull, 106ull, 38ull, 235ull, 0x40af7c22424c9ac6ull},
    {10ull, 0xc32150c0d2a74365ull, 119ull, 35ull, 201ull, 0x40afac94e56cecc1ull},
};

/// Saturated serving probe: serve_saturated's load (rate 60, dwell 100,
/// prefill at steady state, a sweep every 64 events) on the benchmark's
/// dense deployment (10x10 grid, 100 BSs, 3000 m), over a shorter horizon
/// with a re-solve every 2000 events. About 2200 UEs wait at the cloud,
/// so every sweep after the prefill retries a long waiting set to place a
/// few. The faulted arm crashes one BS 1000 events after the prefill and
/// recovers it 1000 events later.
ChurnConfig saturated_probe_config(std::uint64_t seed, bool faulted) {
  ChurnConfig cfg;
  cfg.deployment.bss_per_sp = 20;
  cfg.deployment.area_side_m = 3000.0;
  cfg.arrival_rate_hz = 60.0;
  cfg.mean_dwell_s = 100.0;
  cfg.prefill = cfg.steady_state_target();  // counts toward the horizon
  cfg.horizon_events = cfg.prefill + 2500;
  cfg.readmit_every = 64;
  cfg.resolve_every = 2000;
  cfg.seed = seed;
  if (faulted) {
    FaultSpec faults;
    faults.crashes = 1;
    faults.crash_round = cfg.prefill + 1000;  // event index on the serving timeline
    faults.down_rounds = 1000;
    faults.seed = seed;
    cfg.faults = faults;
  }
  return cfg;
}

struct GoldenSaturatedRow {
  bool faulted;
  GoldenServingRow pinned;
};

// Generated from the serving loop whose readmit sweep walked every waiting
// slot.
constexpr GoldenSaturatedRow kGoldenSaturated[] = {
    {false, {1ull, 0xb169c3e556e0d5fdull, 520ull, 0ull, 2178ull, 0x40e4e06ecdb12212ull}},
    {false, {2ull, 0xaad209abb438b3d2ull, 507ull, 0ull, 2215ull, 0x40e52117383b4593ull}},
    {true, {1ull, 0x56f744fb05f14ab2ull, 545ull, 35ull, 2182ull, 0x40e4ceb79d943898ull}},
    {true, {2ull, 0x40063ca280e805bull, 535ull, 37ull, 2219ull, 0x40e51460d6f1d77eull}},
};

// Timeline probe: build_churn_timeline alone on the benchmark's dense
// deployment (10x10 grid, 100 BSs, 3000 m), pinning the event sequence
// and every link and candidate row of the slot universe.
struct GoldenTimelineRow {
  const char* name;
  std::uint64_t seed;
  std::uint64_t slots;
  std::uint64_t candidate_slots;
  std::uint64_t hash;  ///< FNV-1a over the events, then every UE's rows
};

/// The benchmark's three serving workloads at a 4000-event horizon, a
/// static population below its steady state (arrivals and departures
/// through the event heap), a prefill larger than the horizon with
/// waypoint moves armed, and zero dwell (every arrival departs at its own
/// instant). At this horizon dense_batch's prefill equals the horizon and
/// serve_saturated's exceeds it, so both apply prefill arrivals only and
/// share one universe.
ChurnConfig timeline_probe_config(std::string_view name, std::uint64_t seed) {
  ChurnConfig cfg;
  cfg.deployment.bss_per_sp = 20;
  cfg.deployment.area_side_m = 3000.0;
  cfg.mean_dwell_s = 100.0;
  cfg.horizon_events = 4000;
  cfg.seed = seed;
  if (name == "dense_batch") {
    cfg.arrival_rate_hz = 40.0;
  } else if (name == "serve_saturated") {
    cfg.arrival_rate_hz = 60.0;
  } else if (name == "serve_mobile") {
    cfg.arrival_rate_hz = 20.0;
    cfg.mean_move_interval_s = 10.0;
  } else if (name == "static_churn") {
    cfg.arrival_rate_hz = 40.0;
    cfg.prefill = 1000;
    return cfg;
  } else if (name == "prefill_over_horizon") {
    cfg.arrival_rate_hz = 20.0;
    cfg.mean_move_interval_s = 10.0;
    cfg.horizon_events = 1500;
  } else {  // zero_dwell
    cfg.arrival_rate_hz = 40.0;
    cfg.mean_dwell_s = 0.0;
    cfg.mean_move_interval_s = 10.0;
    cfg.prefill = 1000;
    return cfg;
  }
  cfg.prefill = cfg.steady_state_target();
  return cfg;
}

std::uint64_t timeline_hash(const ChurnTimeline& t) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::uint64_t h = 1469598103934665603ull;
  for (const ChurnEvent& e : t.events) {
    h = fnv1a_words(h, static_cast<std::uint64_t>(e.kind));
    h = fnv1a_words(h, e.ue);
    h = fnv1a_words(h, e.slot);
    h = fnv1a_words(h, e.prev_slot);
    h = fnv1a_words(h, bits(e.time_s));
  }
  const Scenario& s = t.universe;
  for (const UserEquipment& e : s.ues()) {
    const Scenario::LinkRow row = s.link_row(e.id);
    h = fnv1a_words(h, row.bss.size());
    for (std::size_t k = 0; k < row.bss.size(); ++k) {
      const LinkStats& l = row.stats[k];
      h = fnv1a_words(h, row.bss[k]);
      h = fnv1a_words(h, bits(l.distance_m));
      h = fnv1a_words(h, bits(l.sinr));
      h = fnv1a_words(h, bits(l.rrb_rate_bps));
      h = fnv1a_words(h, l.n_rrbs);
      h = fnv1a_words(h, l.in_coverage ? 1 : 0);
    }
    const auto cands = s.candidates(e.id);
    const auto prices = s.candidate_prices(e.id);
    const auto rrbs = s.candidate_rrbs(e.id);
    h = fnv1a_words(h, cands.size());
    for (std::size_t k = 0; k < cands.size(); ++k) {
      h = fnv1a_words(h, cands[k].value);
      h = fnv1a_words(h, bits(prices[k]));
      h = fnv1a_words(h, rrbs[k]);
    }
  }
  return h;
}

// Generated from the timeline build that pushed every prefill arrival
// through the event heap and grew the link store per UE.
constexpr GoldenTimelineRow kGoldenTimeline[] = {
    {"dense_batch", 1ull, 4000ull, 30581ull, 0x78f3c1e79cfcc256ull},
    {"dense_batch", 2ull, 4000ull, 30434ull, 0xc19fdd272ce8d3c0ull},
    {"serve_saturated", 1ull, 4000ull, 30581ull, 0x78f3c1e79cfcc256ull},
    {"serve_saturated", 2ull, 4000ull, 30434ull, 0xc19fdd272ce8d3c0ull},
    {"serve_mobile", 1ull, 3840ull, 29729ull, 0x75075d61c2f59e65ull},
    {"serve_mobile", 2ull, 3845ull, 29540ull, 0x14270116b7545704ull},
    {"static_churn", 1ull, 3135ull, 23973ull, 0x2bf1ea5cbe07432full},
    {"static_churn", 2ull, 3118ull, 23693ull, 0x4c10560cf0f49db7ull},
    {"prefill_over_horizon", 1ull, 1500ull, 11496ull, 0x106e83e2542cda0bull},
    {"prefill_over_horizon", 2ull, 1500ull, 11418ull, 0xc6e4c04554aafd96ull},
    {"zero_dwell", 1ull, 2000ull, 15383ull, 0x156ed915dc7cd052ull},
    {"zero_dwell", 2ull, 2000ull, 15261ull, 0x37aa53c791c113b9ull},
};

// Sharded probe: run_sharded_dmra on two deployments per seed. The dense
// one is the benchmark's (10x10 grid, 100 BSs in a 3000 m arena, about
// 1500 UEs, 3 shards), where every shard runs several protocol rounds and
// the boundary strips hand the reconcile pass real work; the paper one is
// the 25-BS, 1200 m deployment at 4 shards, where most UEs straddle a cut.
// Trace bytes are not pinned: the round rows' unmatched_ues column is the
// engine's, not the pass's.
struct GoldenShardedCase {
  std::uint64_t alloc_hash;  ///< FNV-1a over each UE's BS value (cloud = ~0)
  std::uint64_t profit_bits;
  std::uint64_t messages_sent;
  std::uint64_t bus_rounds;
  std::uint64_t proposals_sent;
  std::uint64_t rejections;
  std::uint64_t rounds_hash;  ///< FNV-1a over rounds_per_shard
  std::uint64_t boundary_reconciled;
  std::uint64_t reconcile_rounds;
};

struct GoldenShardedRow {
  std::uint64_t seed;
  GoldenShardedCase dense;
  GoldenShardedCase paper;
};

GoldenShardedCase run_sharded_probe(const Scenario& s, std::size_t shards) {
  const ShardedResult r = run_sharded_dmra(s, {}, ShardConfig{shards, 1});
  GoldenShardedCase c{};
  c.alloc_hash = 1469598103934665603ull;
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
    const auto bs = r.dmra.allocation.bs_of(UeId{static_cast<std::uint32_t>(ui)});
    c.alloc_hash = fnv1a_words(c.alloc_hash, bs ? bs->value : ~std::uint64_t{0});
  }
  c.profit_bits = profit_bits(s, r.dmra.allocation);
  c.messages_sent = r.bus.messages_sent;
  c.bus_rounds = r.bus.rounds;
  c.proposals_sent = r.dmra.proposals_sent;
  c.rejections = r.dmra.rejections;
  c.rounds_hash = 1469598103934665603ull;
  for (const std::size_t rounds : r.shard.rounds_per_shard)
    c.rounds_hash = fnv1a_words(c.rounds_hash, rounds);
  c.boundary_reconciled = r.shard.boundary_ues_reconciled;
  c.reconcile_rounds = r.shard.reconcile_rounds;
  return c;
}

GoldenShardedRow run_sharded_probes(std::uint64_t seed) {
  ScenarioConfig dense;
  dense.bss_per_sp = 20;
  dense.area_side_m = 3000.0;
  dense.num_ues = 1500;
  ScenarioConfig paper;
  paper.num_ues = kUes;
  return {seed, run_sharded_probe(generate_scenario(dense, seed), 3),
          run_sharded_probe(generate_scenario(paper, seed), 4)};
}

void print_sharded_case(const GoldenShardedCase& c) {
  std::printf("{0x%llxull, 0x%llxull, %lluull, %lluull, %lluull, %lluull, 0x%llxull, "
              "%lluull, %lluull}",
              static_cast<unsigned long long>(c.alloc_hash),
              static_cast<unsigned long long>(c.profit_bits),
              static_cast<unsigned long long>(c.messages_sent),
              static_cast<unsigned long long>(c.bus_rounds),
              static_cast<unsigned long long>(c.proposals_sent),
              static_cast<unsigned long long>(c.rejections),
              static_cast<unsigned long long>(c.rounds_hash),
              static_cast<unsigned long long>(c.boundary_reconciled),
              static_cast<unsigned long long>(c.reconcile_rounds));
}

// Generated from the runtime whose shards ran their own copy of the
// protocol; the shared engine must reproduce every field. messages_sent
// was re-pinned when resource levels moved onto per-BS broadcast
// channels, where a publication counts once.
constexpr GoldenShardedRow kGoldenSharded[kSeeds] = {
    {1ull,
     {0x176aa83cda069bcbull, 0x40d18d31f4c84f18ull, 6818ull, 78ull, 2855ull, 1355ull, 0x9bdda013390fa2e7ull, 671ull, 8ull},
     {0xff8a724ae9201d27ull, 0x40abb79a071e8d22ull, 214ull, 18ull, 599ull, 299ull, 0x9306d3c1f49ead87ull, 270ull, 6ull}},
    {2ull,
     {0xcbaaf6b494867cc2ull, 0x40d186c4a75462a4ull, 7093ull, 74ull, 2967ull, 1467ull, 0x6c767d4060d250aeull, 676ull, 6ull},
     {0xf0fb77dbf97cc52full, 0x40ac4a5464eab740ull, 186ull, 14ull, 575ull, 275ull, 0xba2b6282a813a6a0ull, 272ull, 6ull}},
    {3ull,
     {0xda92cd981eabf146ull, 0x40d1a2fa90fafb65ull, 6981ull, 78ull, 2963ull, 1463ull, 0x73873386e3647507ull, 673ull, 9ull},
     {0x885c8afe18d340abull, 0x40abe6a33c0c28ddull, 164ull, 10ull, 590ull, 290ull, 0xd926298bb302f0c1ull, 272ull, 6ull}},
    {4ull,
     {0xc860feaaadeb2c85ull, 0x40d19ff630e23288ull, 6832ull, 74ull, 2830ull, 1330ull, 0x848fbb3ce09af906ull, 663ull, 6ull},
     {0xdcc1425f1dc3b9bfull, 0x40ac5d895fe42c9aull, 212ull, 14ull, 582ull, 282ull, 0xba2b6282a813a6a0ull, 264ull, 6ull}},
    {5ull,
     {0xab75f9155664d824ull, 0x40d1bc898db472d5ull, 6585ull, 78ull, 2906ull, 1406ull, 0x8fa7d380717709e9ull, 703ull, 8ull},
     {0x3c8ea957e69bdf80ull, 0x40acbd7fabdc02e4ull, 151ull, 14ull, 618ull, 318ull, 0xba2b6282a813a6a0ull, 275ull, 7ull}},
    {6ull,
     {0xa48ac81062182aa2ull, 0x40d17ee261906c39ull, 6774ull, 74ull, 2913ull, 1413ull, 0x848fbb3ce09af906ull, 696ull, 6ull},
     {0x593379d0edfbb085ull, 0x40acaf3017c53a05ull, 160ull, 14ull, 615ull, 315ull, 0xba2b6282a813a6a0ull, 274ull, 8ull}},
    {7ull,
     {0xdc64f3ba6fc73537ull, 0x40d1c98d214a66d1ull, 6790ull, 70ull, 2962ull, 1462ull, 0xd9ba61cad2ab8d01ull, 675ull, 8ull},
     {0xbd53e67183d08f5dull, 0x40ac741111ee1faaull, 244ull, 18ull, 609ull, 309ull, 0x9306d3c1f49ead87ull, 265ull, 7ull}},
    {8ull,
     {0xb351cec47b7330ceull, 0x40d17047f841c4eeull, 6896ull, 70ull, 2951ull, 1451ull, 0xd9ba61cad2ab8d01ull, 681ull, 9ull},
     {0xc91fe258202e1687ull, 0x40ac03b1bf212ea0ull, 215ull, 18ull, 560ull, 260ull, 0x9306d3c1f49ead87ull, 269ull, 6ull}},
    {9ull,
     {0xdf46039df1c98c1ull, 0x40d17e01dfacc9a2ull, 6935ull, 86ull, 3012ull, 1512ull, 0x6c2f3f021fcd878dull, 696ull, 7ull},
     {0x250a61753595c365ull, 0x40ac379665f91198ull, 196ull, 14ull, 591ull, 291ull, 0xba2b6282a813a6a0ull, 266ull, 9ull}},
    {10ull,
     {0x6967aff65a856fdull, 0x40d1a62e516110c8ull, 6229ull, 74ull, 2863ull, 1363ull, 0x548c6c7dd8752ae6ull, 710ull, 8ull},
     {0xa290181e70fdcb00ull, 0x40ac020042f58f58ull, 100ull, 10ull, 651ull, 351ull, 0xd926298bb302f0c1ull, 283ull, 8ull}},
};

// Link-fault probe: two plans without outages per seed on the paper
// deployment.
struct GoldenLinkCase {
  std::uint64_t bus_rounds;
  std::uint64_t messages_sent;
  std::uint64_t dropped;
  std::uint64_t duplicated;
  std::uint64_t delayed;
  std::uint64_t proposals_sent;
  std::uint64_t profit_bits;
};

struct GoldenLinkRow {
  std::uint64_t seed;
  GoldenLinkCase loss;   ///< drop 0.2
  GoldenLinkCase mixed;  ///< drop 0.1, duplicate 0.05, delay 0.1 (max 3 rounds)
};

GoldenLinkCase run_link_probe(const Scenario& s, const LinkFaults& link, std::uint64_t seed) {
  FaultPlan plan;
  plan.link = link;
  const DecentralizedResult r = run_decentralized_dmra(s, {}, {.seed = seed, .faults = &plan});
  // No outages, so no crash recovery: nothing is re-proposed, presumed
  // dead, or suspected.
  EXPECT_EQ(r.recovery.reproposals, 0u);
  EXPECT_EQ(r.recovery.presumed_dead, 0u);
  EXPECT_EQ(r.recovery.suspected_serving_bs, 0u);
  return {r.bus.rounds,           r.bus.messages_sent,    r.bus.messages_dropped,
          r.bus.messages_duplicated, r.bus.messages_delayed, r.dmra.proposals_sent,
          profit_bits(s, r.dmra.allocation)};
}

GoldenLinkRow run_link_probes(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.num_ues = kUes;
  const Scenario s = generate_scenario(cfg, seed);
  return {seed, run_link_probe(s, {.drop_probability = 0.2}, seed),
          run_link_probe(s,
                         {.drop_probability = 0.1,
                          .duplicate_probability = 0.05,
                          .delay_probability = 0.1,
                          .max_delay_rounds = 3},
                         seed)};
}

void print_link_case(const GoldenLinkCase& c) {
  std::printf("{%lluull, %lluull, %lluull, %lluull, %lluull, %lluull, 0x%llxull}",
              static_cast<unsigned long long>(c.bus_rounds),
              static_cast<unsigned long long>(c.messages_sent),
              static_cast<unsigned long long>(c.dropped),
              static_cast<unsigned long long>(c.duplicated),
              static_cast<unsigned long long>(c.delayed),
              static_cast<unsigned long long>(c.proposals_sent),
              static_cast<unsigned long long>(c.profit_bits));
}

// Generated by the engine that arms crash recovery only for plans with
// outages, and re-pinned when resource levels moved onto per-BS broadcast
// channels whose reads take their own loss and delay draws.
constexpr GoldenLinkRow kGoldenLink[kSeeds] = {
    {1ull,
     {50ull, 3270ull, 601ull, 0ull, 0ull, 1006ull, 0x40abb5bd9ca874aeull},
     {50ull, 3270ull, 305ull, 127ull, 282ull, 857ull, 0x40abb9a219811123ull}},
    {2ull,
     {42ull, 3063ull, 526ull, 0ull, 0ull, 936ull, 0x40ac46e5311e89b4ull},
     {54ull, 3318ull, 287ull, 130ull, 258ull, 838ull, 0x40ac47be048d70d7ull}},
    {3ull,
     {42ull, 3127ull, 547ull, 0ull, 0ull, 947ull, 0x40abe27f02ae2f06ull},
     {46ull, 3223ull, 274ull, 142ull, 268ull, 825ull, 0x40abe8ef568bf8b1ull}},
    {4ull,
     {50ull, 3195ull, 558ull, 0ull, 0ull, 974ull, 0x40ac5ec756d031ddull},
     {54ull, 3289ull, 267ull, 141ull, 274ull, 822ull, 0x40ac6113f18b389cull}},
    {5ull,
     {62ull, 3373ull, 606ull, 0ull, 0ull, 1017ull, 0x40acbb10a18d8ea8ull},
     {58ull, 3311ull, 310ull, 117ull, 262ull, 850ull, 0x40acbb0d7bd0e950ull}},
    {6ull,
     {50ull, 3250ull, 560ull, 0ull, 0ull, 983ull, 0x40acace3241aff6dull},
     {54ull, 3307ull, 273ull, 132ull, 242ull, 832ull, 0x40aca9207de5ec2full}},
    {7ull,
     {70ull, 3490ull, 633ull, 0ull, 0ull, 1047ull, 0x40ac71c853218b19ull},
     {50ull, 3243ull, 300ull, 135ull, 237ull, 832ull, 0x40ac71b1ed718720ull}},
    {8ull,
     {54ull, 3017ull, 508ull, 0ull, 0ull, 902ull, 0x40ac027eaac7b138ull},
     {50ull, 3169ull, 268ull, 119ull, 257ull, 814ull, 0x40ac03500055b30aull}},
    {9ull,
     {62ull, 3423ull, 623ull, 0ull, 0ull, 1031ull, 0x40ac35217c73806eull},
     {66ull, 3484ull, 316ull, 133ull, 278ull, 880ull, 0x40ac333e396c6888ull}},
    {10ull,
     {54ull, 3471ull, 619ull, 0ull, 0ull, 1051ull, 0x40ac0077a1d99ee2ull},
     {54ull, 3509ull, 324ull, 151ull, 297ull, 901ull, 0x40abfbe1dd8994ecull}},
};

// See BusFaultStreamPinned below; regenerated alongside kGolden.
constexpr std::uint64_t kBusFaultStreamHash = 0x4fdb0e93353ec4adull;

TEST(GoldenRuntime, ByteIdenticalAcrossSeeds) {
  if (std::getenv("DMRA_GOLDEN_REGEN") != nullptr) {
    for (int seed = 1; seed <= kSeeds; ++seed)
      print_row(run_probes(static_cast<std::uint64_t>(seed)));
    GTEST_SKIP() << "regen mode: rows printed to stdout";
  }
  for (const GoldenRow& want : kGolden) {
    const GoldenRow got = run_probes(want.seed);
    SCOPED_TRACE("seed " + std::to_string(want.seed));
    EXPECT_EQ(got.dec_bus_rounds, want.dec_bus_rounds);
    EXPECT_EQ(got.dec_messages_sent, want.dec_messages_sent);
    EXPECT_EQ(got.dec_matching_rounds, want.dec_matching_rounds);
    EXPECT_EQ(got.dec_profit_bits, want.dec_profit_bits);
    EXPECT_EQ(got.dec_trace_hash, want.dec_trace_hash);
    EXPECT_EQ(got.dec_csv_hash, want.dec_csv_hash);
    EXPECT_EQ(got.flt_bus_rounds, want.flt_bus_rounds);
    EXPECT_EQ(got.flt_messages_sent, want.flt_messages_sent);
    EXPECT_EQ(got.flt_dropped, want.flt_dropped);
    EXPECT_EQ(got.flt_duplicated, want.flt_duplicated);
    EXPECT_EQ(got.flt_delayed, want.flt_delayed);
    EXPECT_EQ(got.flt_orphaned, want.flt_orphaned);
    EXPECT_EQ(got.flt_cloud_fallbacks, want.flt_cloud_fallbacks);
    EXPECT_EQ(got.flt_profit_bits, want.flt_profit_bits);
  }
}

TEST(GoldenRuntime, ServingByteIdenticalAcrossSeeds) {
  const bool regen = std::getenv("DMRA_GOLDEN_REGEN") != nullptr;
  for (const GoldenServingRow& want : kGoldenServing) {
    const std::uint64_t seed = want.seed;
    const ChurnResult r = run_serving_probe(seed);
    const GoldenServingRow got{seed,
                               fnv1a(r.event_log),
                               r.stats.readmitted,
                               r.stats.orphaned_ues,
                               r.stats.final_cloud,
                               std::bit_cast<std::uint64_t>(r.stats.final_profit)};
    SCOPED_TRACE("seed " + std::to_string(seed));
    // The probe must exercise what it pins: sweep readmissions and crash
    // orphans on every seed.
    EXPECT_NE(r.event_log.find(" readmit slot="), std::string::npos);
    EXPECT_GT(got.orphaned, 0u);
    if (regen) {
      std::printf("    {%lluull, 0x%llxull, %lluull, %lluull, %lluull, 0x%llxull},\n",
                  static_cast<unsigned long long>(got.seed),
                  static_cast<unsigned long long>(got.log_hash),
                  static_cast<unsigned long long>(got.readmitted),
                  static_cast<unsigned long long>(got.orphaned),
                  static_cast<unsigned long long>(got.final_cloud),
                  static_cast<unsigned long long>(got.final_profit_bits));
      continue;
    }
    EXPECT_EQ(got.log_hash, want.log_hash);
    EXPECT_EQ(got.readmitted, want.readmitted);
    EXPECT_EQ(got.orphaned, want.orphaned);
    EXPECT_EQ(got.final_cloud, want.final_cloud);
    EXPECT_EQ(got.final_profit_bits, want.final_profit_bits);
  }
  if (regen) GTEST_SKIP() << "regen mode: rows printed to stdout";
}

TEST(GoldenRuntime, SaturatedServingByteIdentical) {
  const bool regen = std::getenv("DMRA_GOLDEN_REGEN") != nullptr;
  // The per-event audit recounts the whole universe: at this size it costs
  // about 6 ms an event under the sanitizers, 220 s for these rows. This
  // test pins bytes; CI's serve-smoke job serves a saturated deployment
  // under the auditor. (observer() honours DMRA_AUDIT first, so the env
  // auditor cannot install itself under the mute.)
  audit::observer();
  audit::ScopedAuditObserver mute_audit(nullptr);
  for (const GoldenSaturatedRow& want : kGoldenSaturated) {
    const std::uint64_t seed = want.pinned.seed;
    const ChurnResult r = run_churn(saturated_probe_config(seed, want.faulted));
    const GoldenServingRow got{seed,
                               fnv1a(r.event_log),
                               r.stats.readmitted,
                               r.stats.orphaned_ues,
                               r.stats.final_cloud,
                               std::bit_cast<std::uint64_t>(r.stats.final_profit)};
    SCOPED_TRACE("seed " + std::to_string(seed) + (want.faulted ? ", faulted" : ""));
    // The probe must exercise what it pins: a saturated deployment with a
    // long waiting set, sweep readmissions and, when faulted, orphans.
    EXPECT_GT(got.final_cloud, 1000u);
    EXPECT_GT(got.readmitted, 0u);
    EXPECT_EQ(got.orphaned > 0, want.faulted);
    if (regen) {
      std::printf("    {%s, {%lluull, 0x%llxull, %lluull, %lluull, %lluull, 0x%llxull}},\n",
                  want.faulted ? "true" : "false", static_cast<unsigned long long>(got.seed),
                  static_cast<unsigned long long>(got.log_hash),
                  static_cast<unsigned long long>(got.readmitted),
                  static_cast<unsigned long long>(got.orphaned),
                  static_cast<unsigned long long>(got.final_cloud),
                  static_cast<unsigned long long>(got.final_profit_bits));
      continue;
    }
    EXPECT_EQ(got.log_hash, want.pinned.log_hash);
    EXPECT_EQ(got.readmitted, want.pinned.readmitted);
    EXPECT_EQ(got.orphaned, want.pinned.orphaned);
    EXPECT_EQ(got.final_cloud, want.pinned.final_cloud);
    EXPECT_EQ(got.final_profit_bits, want.pinned.final_profit_bits);
  }
  if (regen) GTEST_SKIP() << "regen mode: rows printed to stdout";
}

TEST(GoldenRuntime, TimelineByteIdenticalAcrossWorkloads) {
  if (std::getenv("DMRA_GOLDEN_REGEN") != nullptr) {
    for (const char* name : {"dense_batch", "serve_saturated", "serve_mobile", "static_churn",
                             "prefill_over_horizon", "zero_dwell"})
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        const ChurnTimeline t = build_churn_timeline(timeline_probe_config(name, seed));
        std::printf("    {\"%s\", %lluull, %lluull, %lluull, 0x%llxull},\n", name,
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(t.universe.num_ues()),
                    static_cast<unsigned long long>(t.universe.num_candidate_slots()),
                    static_cast<unsigned long long>(timeline_hash(t)));
      }
    GTEST_SKIP() << "regen mode: rows printed to stdout";
  }
  ASSERT_EQ(std::size(kGoldenTimeline), 12u);
  for (const GoldenTimelineRow& want : kGoldenTimeline) {
    const ChurnConfig cfg = timeline_probe_config(want.name, want.seed);
    const ChurnTimeline t = build_churn_timeline(cfg);
    SCOPED_TRACE(std::string(want.name) + " seed " + std::to_string(want.seed));
    EXPECT_EQ(t.events.size(), cfg.horizon_events);
    EXPECT_EQ(t.universe.num_ues(), want.slots);
    EXPECT_EQ(t.universe.num_candidate_slots(), want.candidate_slots);
    EXPECT_EQ(timeline_hash(t), want.hash);
  }
}

void expect_sharded_case(const GoldenShardedCase& got, const GoldenShardedCase& want) {
  EXPECT_EQ(got.alloc_hash, want.alloc_hash);
  EXPECT_EQ(got.profit_bits, want.profit_bits);
  EXPECT_EQ(got.messages_sent, want.messages_sent);
  EXPECT_EQ(got.bus_rounds, want.bus_rounds);
  EXPECT_EQ(got.proposals_sent, want.proposals_sent);
  EXPECT_EQ(got.rejections, want.rejections);
  EXPECT_EQ(got.rounds_hash, want.rounds_hash);
  EXPECT_EQ(got.boundary_reconciled, want.boundary_reconciled);
  EXPECT_EQ(got.reconcile_rounds, want.reconcile_rounds);
}

TEST(GoldenRuntime, ShardedByteIdenticalAcrossSeeds) {
  if (std::getenv("DMRA_GOLDEN_REGEN") != nullptr) {
    for (int seed = 1; seed <= kSeeds; ++seed) {
      const GoldenShardedRow r = run_sharded_probes(static_cast<std::uint64_t>(seed));
      std::printf("    {%lluull,\n     ", static_cast<unsigned long long>(r.seed));
      print_sharded_case(r.dense);
      std::printf(",\n     ");
      print_sharded_case(r.paper);
      std::printf("},\n");
    }
    GTEST_SKIP() << "regen mode: rows printed to stdout";
  }
  for (const GoldenShardedRow& want : kGoldenSharded) {
    const GoldenShardedRow got = run_sharded_probes(want.seed);
    SCOPED_TRACE("seed " + std::to_string(want.seed));
    {
      SCOPED_TRACE("dense deployment, 3 shards");
      expect_sharded_case(got.dense, want.dense);
    }
    {
      SCOPED_TRACE("paper deployment, 4 shards");
      expect_sharded_case(got.paper, want.paper);
    }
  }
}

void expect_link_case(const GoldenLinkCase& got, const GoldenLinkCase& want) {
  EXPECT_EQ(got.bus_rounds, want.bus_rounds);
  EXPECT_EQ(got.messages_sent, want.messages_sent);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.duplicated, want.duplicated);
  EXPECT_EQ(got.delayed, want.delayed);
  EXPECT_EQ(got.proposals_sent, want.proposals_sent);
  EXPECT_EQ(got.profit_bits, want.profit_bits);
}

TEST(GoldenRuntime, LinkFaultPlansByteIdenticalAcrossSeeds) {
  if (std::getenv("DMRA_GOLDEN_REGEN") != nullptr) {
    for (int seed = 1; seed <= kSeeds; ++seed) {
      const GoldenLinkRow r = run_link_probes(static_cast<std::uint64_t>(seed));
      std::printf("    {%lluull,\n     ", static_cast<unsigned long long>(r.seed));
      print_link_case(r.loss);
      std::printf(",\n     ");
      print_link_case(r.mixed);
      std::printf("},\n");
    }
    GTEST_SKIP() << "regen mode: rows printed to stdout";
  }
  for (const GoldenLinkRow& want : kGoldenLink) {
    const GoldenLinkRow got = run_link_probes(want.seed);
    SCOPED_TRACE("seed " + std::to_string(want.seed));
    {
      SCOPED_TRACE("loss only");
      expect_link_case(got.loss, want.loss);
    }
    {
      SCOPED_TRACE("loss + duplication + delay");
      expect_link_case(got.mixed, want.mixed);
    }
  }
}

// Bus-level pin of the full fault draw order (drop → duplicate → delay)
// and the delayed-before-fresh delivery rule: a scripted send schedule
// under an armed LinkFaults must produce the exact same delivered stream
// — (to, seq, sent_round, payload) per take_inbox, in order — after the
// pooled-inbox rework as before it.
TEST(GoldenRuntime, BusFaultStreamPinned) {
  constexpr std::size_t kAgents = 16;
  constexpr std::uint64_t kRounds = 24;
  MessageBus<std::uint32_t> bus;
  std::vector<AgentId> agents;
  for (std::size_t a = 0; a < kAgents; ++a) agents.push_back(bus.register_agent());
  LinkFaults faults;
  faults.drop_probability = 0.1;
  faults.duplicate_probability = 0.1;
  faults.delay_probability = 0.15;
  faults.max_delay_rounds = 3;
  bus.set_faults(faults, /*seed=*/42);

  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  std::uint32_t payload = 0;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (std::size_t m = 0; m < 3 * kAgents; ++m)
      bus.send(agents[m % kAgents], agents[(m * 5 + 1) % kAgents], payload++);
    bus.deliver();
    for (const AgentId id : agents) {
      const auto inbox = bus.take_inbox(id);
      for (const auto& env : inbox) {
        mix(env.to.idx());
        mix(env.seq);
        mix(env.sent_round);
        mix(env.payload);
      }
    }
  }
  // Drain what the delay faults still hold in flight.
  while (bus.in_flight() > 0) {
    bus.deliver();
    for (const AgentId id : agents) {
      const auto inbox = bus.take_inbox(id);
      for (const auto& env : inbox) {
        mix(env.to.idx());
        mix(env.seq);
        mix(env.sent_round);
        mix(env.payload);
      }
    }
  }
  mix(bus.stats().messages_sent);
  mix(bus.stats().messages_delivered);
  mix(bus.stats().messages_dropped);
  mix(bus.stats().messages_duplicated);
  mix(bus.stats().messages_delayed);
  if (std::getenv("DMRA_GOLDEN_REGEN") != nullptr) {
    std::printf("bus fault stream hash: 0x%llxull\n",
                static_cast<unsigned long long>(h));
    GTEST_SKIP() << "regen mode";
  }
  EXPECT_EQ(h, kBusFaultStreamHash);
}

}  // namespace
}  // namespace dmra
