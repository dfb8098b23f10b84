// Tests for the observability layer (src/obs): the metrics registry, the
// trace recorder, both exporters, the instrumentation hooks in core/ and
// sim/, and the two hard guarantees — byte-identical exports per seed and
// a strict no-op when no recorder is installed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/decentralized.hpp"
#include "core/dmra_allocator.hpp"
#include "core/solver.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/round_csv.hpp"
#include "sim/churn.hpp"
#include "sim/experiment.hpp"
#include "../test_util.hpp"
#include "util/json.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

using test::MiniScenario;

// ---- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistry, CountersAccumulate) {
  obs::MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.counter("x"), 0u);
  m.add_counter("x");
  m.add_counter("x", 4);
  EXPECT_EQ(m.counter("x"), 5u);
  EXPECT_FALSE(m.empty());
}

TEST(MetricsRegistry, GaugesKeepLastValue) {
  obs::MetricsRegistry m;
  m.set_gauge("g", 1.5);
  m.set_gauge("g", -2.0);
  EXPECT_DOUBLE_EQ(m.gauge("g"), -2.0);
  EXPECT_DOUBLE_EQ(m.gauge("absent"), 0.0);
}

TEST(MetricsRegistry, ScopedTimerRecordsCompletedScopes) {
  obs::MetricsRegistry m;
  {
    auto t = m.scoped_timer("scope");
  }
  {
    auto t = m.scoped_timer("scope");
  }
  const auto it = m.timers().find("scope");
  ASSERT_NE(it, m.timers().end());
  EXPECT_EQ(it->second.count, 2u);
}

TEST(MetricsRegistry, DeterministicJsonExcludesTimers) {
  obs::MetricsRegistry m;
  m.add_counter("c", 3);
  m.set_gauge("g", 1.0);
  { auto t = m.scoped_timer("wall"); }
  const JsonObject json = m.deterministic_json();
  EXPECT_TRUE(json.contains("counters"));
  EXPECT_TRUE(json.contains("gauges"));
  // Timers are wall-clock and would break byte-identical golden exports.
  EXPECT_FALSE(json.contains("timers"));
}

// ---- TraceRecorder ---------------------------------------------------------

TEST(TraceRecorder, StampsRoundSlotAndSeq) {
  obs::TraceRecorder rec;
  rec.set_round(7);
  obs::TraceEvent e;
  e.kind = obs::EventKind::kProposal;
  rec.record(e);
  rec.record(e);
  obs::RoundRow row;
  row.source = "test";
  rec.finish_round(row);
  rec.record(e);  // next slot
  ASSERT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.events()[0].round, 7u);
  EXPECT_EQ(rec.events()[0].slot, 0u);
  EXPECT_EQ(rec.events()[0].seq, 0u);
  EXPECT_EQ(rec.events()[1].seq, 1u);
  EXPECT_EQ(rec.events()[2].slot, 1u);
  EXPECT_EQ(rec.events()[2].seq, 0u);
}

TEST(TraceRecorder, TakeTallyCountsAndResets) {
  obs::TraceRecorder rec;
  obs::TraceEvent p;
  p.kind = obs::EventKind::kProposal;
  rec.record(p);
  obs::TraceEvent d;
  d.kind = obs::EventKind::kDecision;
  d.flag = true;
  rec.record(d);
  d.flag = false;
  rec.record(d);
  const obs::EventTally t = rec.take_tally();
  EXPECT_EQ(t.proposals, 1u);
  EXPECT_EQ(t.accepts, 1u);
  EXPECT_EQ(t.rejects, 1u);
  const obs::EventTally empty = rec.take_tally();
  EXPECT_EQ(empty.proposals, 0u);
  EXPECT_EQ(empty.accepts, 0u);
}

TEST(TraceRecorder, InstallIsPerThreadAndScoped) {
  EXPECT_EQ(obs::recorder(), nullptr);
  obs::TraceRecorder rec;
  {
    obs::ScopedTraceRecorder install(&rec);
    EXPECT_EQ(obs::recorder(), &rec);
  }
  EXPECT_EQ(obs::recorder(), nullptr);
}

TEST(TraceRecorder, DisabledPathRecordsNothing) {
  ASSERT_EQ(obs::recorder(), nullptr);
  const std::uint64_t before = obs::events_recorded_total();
  const Scenario scenario = test::two_bs_scenario(6);
  (void)solve_dmra(scenario, {});
  (void)run_decentralized_dmra(scenario);
  EXPECT_EQ(obs::events_recorded_total(), before);
}

TEST(TraceRecorder, PublishBusStatsFillsRegistry) {
  BusStats stats{4, 20, 18};
  stats.messages_dropped = 2;
  obs::MetricsRegistry m;
  obs::publish_bus_stats(stats, m);
  EXPECT_EQ(m.counter("bus.rounds"), 4u);
  EXPECT_EQ(m.counter("bus.messages_sent"), 20u);
  EXPECT_EQ(m.counter("bus.messages_delivered"), 18u);
  EXPECT_EQ(m.counter("bus.messages_dropped"), 2u);
}

TEST(TraceEvent, EnumsRenderAsText) {
  EXPECT_EQ(to_string(obs::EventKind::kProposal), "propose");
  EXPECT_EQ(to_string(obs::EventKind::kTrimEviction), "trim-eviction");
  EXPECT_EQ(to_string(obs::DecisionReason::kLostTiebreak), "lost-tiebreak");
  EXPECT_EQ(to_string(obs::DecisionReason::kTrimmed), "trimmed");
}

// ---- Instrumentation: direct solver ---------------------------------------

TEST(SolverTracing, EmitsProposalsDecisionsRowsAndTermination) {
  const Scenario scenario = test::two_bs_scenario(6);
  obs::TraceRecorder rec;
  {
    obs::ScopedTraceRecorder install(&rec);
    (void)solve_dmra(scenario, {});
  }
  std::size_t proposals = 0, decisions = 0, terminations = 0;
  for (const obs::TraceEvent& e : rec.events()) {
    if (e.kind == obs::EventKind::kProposal) ++proposals;
    if (e.kind == obs::EventKind::kDecision) ++decisions;
    if (e.kind == obs::EventKind::kTermination) ++terminations;
  }
  EXPECT_GE(proposals, 6u);   // every UE proposes at least once
  EXPECT_GE(decisions, 6u);   // every proposal gets a decision
  EXPECT_EQ(terminations, 1u);
  ASSERT_FALSE(rec.rows().empty());
  for (const obs::RoundRow& row : rec.rows()) {
    EXPECT_EQ(row.source, "core/solver");
    EXPECT_EQ(row.proposals, row.accepts + row.rejects);
  }
  // The run converged: the last event says so and carries the round count.
  const obs::TraceEvent& last = rec.events().back();
  EXPECT_EQ(last.kind, obs::EventKind::kTermination);
  EXPECT_TRUE(last.flag);
  EXPECT_EQ(last.value, rec.rows().size());
}

TEST(SolverTracing, CumulativeProfitMatchesFinalAllocation) {
  const Scenario scenario = test::two_bs_scenario(8);
  obs::TraceRecorder rec;
  DmraResult result;
  {
    obs::ScopedTraceRecorder install(&rec);
    result = solve_dmra(scenario, {});
  }
  ASSERT_FALSE(rec.rows().empty());
  EXPECT_NEAR(rec.rows().back().cumulative_profit,
              total_profit(scenario, result.allocation), 1e-9);
}

TEST(SolverTracing, LostTiebreakCarriesLosingKey) {
  // Two same-service UEs in range of a single-service-slot BS: one wins
  // the round-0 tiebreak, the other must be recorded as the loser with
  // its own key (in particular its UE id).
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0.0, 0.0});
  const UeId u0 = ms.add_ue(sp, {30.0, 0.0}, ServiceId{0});
  const UeId u1 = ms.add_ue(sp, {40.0, 0.0}, ServiceId{0});
  const Scenario scenario = ms.build();

  obs::TraceRecorder rec;
  {
    obs::ScopedTraceRecorder install(&rec);
    (void)solve_dmra(scenario, {});
  }
  std::size_t losses = 0;
  for (const obs::TraceEvent& e : rec.events()) {
    if (e.kind != obs::EventKind::kDecision ||
        e.reason != obs::DecisionReason::kLostTiebreak)
      continue;
    ++losses;
    EXPECT_FALSE(e.flag);
    EXPECT_TRUE(e.ue == u0.value || e.ue == u1.value);
    EXPECT_EQ(e.key.ue, e.ue);  // the loser carries its *own* key
  }
  EXPECT_GE(losses, 1u);
}

TEST(SolverTracing, TrimEvictionEmitsEventAndTrimmedDecision) {
  // Two different-service winners whose combined RRB demand overshoots the
  // budget. Probe the RRB demand first, then rebuild with a budget that
  // admits either UE alone but not both.
  const auto build = [](std::uint32_t rrbs) {
    MiniScenario ms;
    const SpId sp = ms.add_sp();
    ms.add_bs(sp, {0.0, 0.0}, /*cru_per_service=*/100, rrbs);
    ms.add_ue(sp, {30.0, 0.0}, ServiceId{0});
    ms.add_ue(sp, {30.0, 1.0}, ServiceId{1});
    return ms.build();
  };
  const Scenario probe = build(1000);
  const std::uint32_t n0 = probe.link(UeId{0}, BsId{0}).n_rrbs;
  const std::uint32_t n1 = probe.link(UeId{1}, BsId{0}).n_rrbs;
  ASSERT_GT(n0, 0u);
  ASSERT_GT(n1, 0u);
  const Scenario scenario = build(std::max(n0, n1));  // room for one, not both

  obs::TraceRecorder rec;
  {
    obs::ScopedTraceRecorder install(&rec);
    (void)solve_dmra(scenario, {});
  }
  std::size_t evictions = 0, trimmed_decisions = 0;
  for (const obs::TraceEvent& e : rec.events()) {
    if (e.kind == obs::EventKind::kTrimEviction) {
      ++evictions;
      EXPECT_GT(e.value, 0u);  // the evicted RRB demand
    }
    if (e.kind == obs::EventKind::kDecision &&
        e.reason == obs::DecisionReason::kTrimmed)
      ++trimmed_decisions;
  }
  EXPECT_GE(evictions, 1u);
  EXPECT_EQ(evictions, trimmed_decisions);
}

// ---- Instrumentation: decentralized runtime --------------------------------

TEST(DecentralizedTracing, EmitsBroadcastsRowsAndBusMetrics) {
  const Scenario scenario = test::two_bs_scenario(6);
  obs::TraceRecorder rec;
  DecentralizedResult result;
  {
    obs::ScopedTraceRecorder install(&rec);
    result = run_decentralized_dmra(scenario);
  }
  std::size_t broadcasts = 0;
  for (const obs::TraceEvent& e : rec.events())
    if (e.kind == obs::EventKind::kBroadcast) ++broadcasts;
  EXPECT_GE(broadcasts, scenario.num_bss());  // at least the bootstrap
  ASSERT_FALSE(rec.rows().empty());
  std::uint64_t traced_messages = 0;
  for (const obs::RoundRow& row : rec.rows()) {
    EXPECT_EQ(row.source, "core/decentralized");
    traced_messages += row.messages;
  }
  // Every post-bootstrap message lands in some round's tally.
  EXPECT_LE(traced_messages, result.bus.messages_sent);
  EXPECT_EQ(rec.metrics().counter("bus.messages_sent"), result.bus.messages_sent);
  EXPECT_EQ(rec.metrics().counter("bus.rounds"), result.bus.rounds);
}

TEST(DecentralizedTracing, MatchesSolverDecisionCounts) {
  // The protocol is proven equivalent to the direct solver; the traces
  // must agree on the aggregate accept/reject counts per run.
  const Scenario scenario = test::two_bs_scenario(8);
  obs::TraceRecorder direct, protocol;
  {
    obs::ScopedTraceRecorder install(&direct);
    (void)solve_dmra(scenario, {});
  }
  {
    obs::ScopedTraceRecorder install(&protocol);
    (void)run_decentralized_dmra(scenario);
  }
  const auto totals = [](const obs::TraceRecorder& rec) {
    std::pair<std::uint64_t, std::uint64_t> t{0, 0};
    for (const obs::RoundRow& row : rec.rows()) {
      t.first += row.accepts;
      t.second += row.rejects;
    }
    return t;
  };
  EXPECT_EQ(totals(direct), totals(protocol));
}

// ---- Instrumentation: online serving ------------------------------------------

// Serving with a one-shot allocator as the admission rule narrates one
// sim/churn row per event: rounds in order, every proposal decided, each
// BS placement one accept, and the last row carrying the final profit.
TEST(OnlineTracing, EmitsOneRowPerEpoch) {
  ChurnConfig config = test::serving_probe_config(2);  // overloaded: sweeps place
  config.horizon_events = config.prefill + 200;
  config.faults.reset();
  const DmraAllocator allocator;
  config.incremental.rule = &allocator;
  obs::TraceRecorder rec;
  ChurnResult result;
  {
    obs::ScopedTraceRecorder install(&rec);
    result = run_churn(config);
  }
  ASSERT_EQ(rec.rows().size(), result.stats.events);
  std::uint64_t accepts = 0;
  for (std::size_t e = 0; e < rec.rows().size(); ++e) {
    const obs::RoundRow& row = rec.rows()[e];
    EXPECT_EQ(row.source, "sim/churn");
    EXPECT_EQ(row.round, e);
    EXPECT_EQ(row.proposals, row.accepts + row.rejects);
    accepts += row.accepts;
  }
  EXPECT_GT(result.stats.readmitted, 0u);
  EXPECT_EQ(accepts, result.stats.admitted_to_bs + result.stats.readmitted);
  EXPECT_NEAR(rec.rows().back().cumulative_profit, result.stats.final_profit, 1e-9);
  EXPECT_EQ(rec.metrics().counter("churn.arrivals"), result.stats.arrivals);
}

// ---- Instrumentation: experiment ---------------------------------------------

TEST(ExperimentTracing, CountsSweepPointsAndReplications) {
  ExperimentSpec spec;
  spec.title = "traced";
  spec.x_label = "x";
  spec.xs = {40.0, 60.0};
  spec.seeds = default_seeds(2);
  spec.jobs = 1;  // shard_test.cpp covers the parallel jobs>1 merge path
  spec.make_config = [](double x) {
    ScenarioConfig cfg;
    cfg.num_ues = static_cast<std::size_t>(x);
    return cfg;
  };
  spec.make_allocators = [](double) {
    std::vector<AllocatorPtr> algos;
    algos.push_back(std::make_unique<DmraAllocator>());
    return algos;
  };
  obs::TraceRecorder rec;
  {
    obs::ScopedTraceRecorder install(&rec);
    (void)run_experiment(spec);
  }
  EXPECT_EQ(rec.metrics().counter("experiment.sweep_points"), 2u);
  EXPECT_EQ(rec.metrics().counter("experiment.replications"), 4u);
  ASSERT_FALSE(rec.rows().empty());  // the replications traced through
}

// ---- Exporters -------------------------------------------------------------

/// Runs one seeded decentralized run into a fresh recorder.
void trace_reference_run(obs::TraceRecorder& rec) {
  ScenarioConfig cfg;
  cfg.num_ues = 60;
  const Scenario scenario = generate_scenario(cfg, /*seed=*/5);
  obs::ScopedTraceRecorder install(&rec);
  (void)run_decentralized_dmra(scenario);
}

TEST(Exporters, ChromeTraceIsValidAndCarriesSchema) {
  obs::TraceRecorder rec;
  trace_reference_run(rec);
  const std::string json = rec.to_chrome_trace_json();
  const JsonParseResult parsed = json_parse(json);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const JsonValue& root = parsed.value;
  EXPECT_EQ(root.at("otherData").at("schema").as_string(), "dmra-trace/1");
  EXPECT_EQ(root.at("displayTimeUnit").as_string(), "ms");
  const JsonArray& events = root.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());
  std::size_t slices = 0, instants = 0, counters = 0, meta = 0;
  for (const JsonValue& e : events) {
    const std::string& ph = e.at("ph").as_string();
    EXPECT_TRUE(e.has("pid"));
    EXPECT_TRUE(e.has("tid"));
    if (ph == "X") {
      ++slices;
      EXPECT_GT(e.at("dur").as_number(), 0.0);
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "C") {
      ++counters;
    } else if (ph == "M") {
      ++meta;
    } else {
      ADD_FAILURE() << "unexpected phase " << ph;
    }
  }
  EXPECT_EQ(slices, rec.rows().size());
  EXPECT_EQ(instants, rec.events().size());
  EXPECT_GT(counters, 0u);
  EXPECT_GT(meta, 0u);
}

TEST(Exporters, RoundCsvHasFixedHeaderAndOneLinePerRow) {
  obs::TraceRecorder rec;
  trace_reference_run(rec);
  const std::string csv = rec.to_round_csv();
  ASSERT_FALSE(csv.empty());
  const std::size_t first_newline = csv.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  EXPECT_EQ(csv.substr(0, first_newline), obs::round_csv_header());
  std::size_t lines = 0;
  for (const char c : csv)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, rec.rows().size() + 1);  // header + one line per round
}

TEST(Exporters, SameSeedProducesByteIdenticalExports) {
  obs::TraceRecorder a, b;
  trace_reference_run(a);
  trace_reference_run(b);
  EXPECT_EQ(a.to_chrome_trace_json(), b.to_chrome_trace_json());
  EXPECT_EQ(a.to_round_csv(), b.to_round_csv());
}

TEST(Exporters, DifferentSeedsProduceDifferentTraces) {
  const auto trace_with_seed = [](std::uint64_t seed) {
    obs::TraceRecorder rec;
    ScenarioConfig cfg;
    cfg.num_ues = 60;
    const Scenario scenario = generate_scenario(cfg, seed);
    obs::ScopedTraceRecorder install(&rec);
    (void)run_decentralized_dmra(scenario);
    return rec.to_round_csv();
  };
  EXPECT_NE(trace_with_seed(5), trace_with_seed(6));
}

}  // namespace
}  // namespace dmra
