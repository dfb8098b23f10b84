// FlightRecorder contract tests: ring semantics, per-agent slot stamps,
// first-wins trigger freeze, --dump-on, shard absorb determinism (jobs
// byte-identity), windowed metrics, the Prometheus exposition, and the
// dmra-postmortem/1 artifact (docs/OBSERVABILITY.md).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/exposition.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/shard.hpp"
#include "util/json.hpp"

namespace dmra::obs {
namespace {

TraceEvent phase_event(std::string_view label, std::uint64_t value = 0) {
  TraceEvent ev;
  ev.kind = EventKind::kPhase;
  ev.label = label;
  ev.value = value;
  return ev;
}

TraceEvent fault_event(std::uint32_t bs, std::uint64_t value = 0) {
  TraceEvent ev;
  ev.kind = EventKind::kFault;
  ev.label = "bs-crash";
  ev.bs = bs;
  ev.value = value;
  return ev;
}

TEST(FlightRecorder, RingKeepsNewestAndCountsDropped) {
  FlightRecorder::Config cfg;
  cfg.event_capacity = 4;
  FlightRecorder fr(cfg);
  for (std::uint64_t i = 0; i < 10; ++i) fr.record(phase_event("p", i));
  EXPECT_EQ(fr.events_seen(), 10u);
  EXPECT_EQ(fr.events_retained(), 4u);
  EXPECT_EQ(fr.events_dropped(), 6u);
  const std::vector<TraceEvent> ring = fr.ring_events();
  ASSERT_EQ(ring.size(), 4u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].seq, 6u + i) << "oldest-first in global stream order";
    EXPECT_EQ(ring[i].value, 6u + i);
  }
}

TEST(FlightRecorder, RoundRingRollsIndependently) {
  FlightRecorder::Config cfg;
  cfg.round_capacity = 2;
  FlightRecorder fr(cfg);
  for (std::uint64_t r = 0; r < 5; ++r) {
    RoundRow row;
    row.source = "test";
    row.round = r;
    fr.finish_round(row);
  }
  EXPECT_EQ(fr.rounds_seen(), 5u);
  EXPECT_EQ(fr.rounds_retained(), 2u);
  const std::vector<RoundRow> rows = fr.ring_rounds();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].round, 3u);
  EXPECT_EQ(rows[1].round, 4u);
}

TEST(FlightRecorder, StampsRoundAndPerAgentSlots) {
  FlightRecorder fr;
  fr.reserve_agents(/*num_ues=*/4, /*num_bss=*/2);
  fr.set_round(7);
  fr.record(fault_event(/*bs=*/1));
  fr.record(fault_event(/*bs=*/1));
  TraceEvent ue_ev = phase_event("ue");
  ue_ev.ue = 3;
  fr.record(ue_ev);
  fr.record(ue_ev);
  const std::vector<TraceEvent> ring = fr.ring_events();
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring[0].round, 7u);
  // BS 1's own sequence: 0, 1. UE 3's own sequence: 0, 1.
  EXPECT_EQ(ring[0].slot, 0u);
  EXPECT_EQ(ring[1].slot, 1u);
  EXPECT_EQ(ring[2].slot, 0u);
  EXPECT_EQ(ring[3].slot, 1u);
}

TEST(FlightRecorder, FirstTriggerWinsAndFreezesTheRing) {
  FlightRecorder::Config cfg;
  cfg.event_capacity = 8;
  FlightRecorder fr(cfg);
  for (std::uint64_t i = 0; i < 3; ++i) fr.record(phase_event("pre", i));
  fr.trigger("bs-crash", /*round=*/5, /*bs=*/2);
  for (std::uint64_t i = 0; i < 4; ++i) fr.record(phase_event("post", i));
  fr.trigger("audit-violation", 6);  // later trigger only counts

  EXPECT_TRUE(fr.triggered());
  EXPECT_EQ(fr.trigger_reason(), "bs-crash");
  EXPECT_EQ(fr.triggers(), 2u);
  EXPECT_EQ(fr.events_seen(), 7u);

  const auto parsed = json_parse(fr.postmortem_json());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const JsonValue& doc = parsed.value;
  EXPECT_EQ(doc.at("schema").as_string(), kPostmortemSchema);
  EXPECT_EQ(doc.at("trigger").at("reason").as_string(), "bs-crash");
  EXPECT_EQ(doc.at("trigger").at("round").as_int(), 5);
  EXPECT_EQ(doc.at("trigger").at("bs").as_int(), 2);
  EXPECT_TRUE(doc.at("trigger").at("deterministic").as_bool());
  EXPECT_EQ(doc.at("trigger").at("count").as_int(), 2);
  EXPECT_EQ(doc.at("events_after_trigger").as_int(), 4);
  // The dumped events are the frozen pre-trigger snapshot, not the live
  // ring (which kept rolling).
  const JsonArray& events = doc.at("events").as_array();
  ASSERT_EQ(events.size(), 3u);
  for (const JsonValue& ev : events)
    EXPECT_EQ(ev.at("label").as_string(), "pre");
}

TEST(FlightRecorder, UntriggeredDumpUsesLiveRingAndNullTrigger) {
  FlightRecorder fr;
  fr.record(phase_event("only"));
  const auto parsed = json_parse(fr.postmortem_json());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(parsed.value.at("trigger").is_null());
  EXPECT_EQ(parsed.value.at("events_after_trigger").as_int(), 0);
  ASSERT_EQ(parsed.value.at("events").as_array().size(), 1u);
}

TEST(FlightRecorder, DumpOnRoundFiresOnceAtArmedRound) {
  FlightRecorder fr;
  fr.arm_dump_on_round(5);
  ASSERT_TRUE(fr.dump_on_armed());
  fr.set_round(4);
  EXPECT_FALSE(fr.triggered());
  fr.set_round(5);
  ASSERT_TRUE(fr.triggered());
  EXPECT_EQ(fr.trigger_reason(), "dump-on-round");
  fr.set_round(6);
  EXPECT_EQ(fr.triggers(), 1u) << "the predicate fires once, not per round";
}

TEST(FlightRecorder, FaultContextAppearsInDump) {
  FlightRecorder fr;
  fr.set_fault_context("crashes=1,crash-round=5");
  const auto parsed = json_parse(fr.postmortem_json());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.at("fault_context").as_string(), "crashes=1,crash-round=5");
}

TEST(FlightRecorder, AbsorbRestampsAsOneContinuousStream) {
  FlightRecorder parent;
  parent.reserve_agents(2, 2);
  parent.record(fault_event(/*bs=*/0));

  FlightRecorder shard;
  shard.reserve_agents(2, 2);
  shard.record(fault_event(/*bs=*/0));
  shard.record(fault_event(/*bs=*/1));
  shard.metrics().add_counter("x", 3);

  parent.absorb(shard);
  EXPECT_EQ(parent.events_seen(), 3u);
  EXPECT_EQ(parent.metrics().counter("x"), 3u);
  const std::vector<TraceEvent> ring = parent.ring_events();
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring[0].seq, 0u);
  EXPECT_EQ(ring[1].seq, 1u);
  EXPECT_EQ(ring[2].seq, 2u);
  // BS 0 already had one event in the parent, so the shard's BS-0 event
  // continues that agent's numbering; BS 1 starts fresh.
  EXPECT_EQ(ring[1].slot, 1u);
  EXPECT_EQ(ring[2].slot, 0u);
}

TEST(FlightRecorder, AbsorbAdoptsFirstShardTrigger) {
  FlightRecorder parent;
  FlightRecorder a;
  a.record(phase_event("a"));
  FlightRecorder b;
  b.record(phase_event("b"));
  b.trigger("bs-crash", 9, /*bs=*/4);
  parent.absorb(a);
  parent.absorb(b);
  ASSERT_TRUE(parent.triggered());
  EXPECT_EQ(parent.trigger_reason(), "bs-crash");
  const auto parsed = json_parse(parent.postmortem_json());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  // b froze with 1 event; after absorb the stamp offsets place it after
  // a's event in the merged stream.
  const JsonArray& events = parsed.value.at("events").as_array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("label").as_string(), "b");
  EXPECT_EQ(events[0].at("seq").as_int(), 1);
}

// The jobs-invariance contract: a fan-out through traced_parallel_map
// produces byte-identical postmortems for every --jobs value, because
// shards absorb in task order regardless of execution interleaving.
std::string postmortem_across_jobs(std::size_t jobs) {
  FlightRecorder fr;
  fr.reserve_agents(8, 8);
  ScopedFlightRecorder scope(&fr);
  traced_parallel_map(jobs, 6, [&](std::size_t task) {
    FlightRecorder* shard = flight();
    EXPECT_NE(shard, nullptr);
    shard->set_round(task);
    shard->record(fault_event(static_cast<std::uint32_t>(task % 3),
                              static_cast<std::uint64_t>(task)));
    RoundRow row;
    row.source = "flight-test";
    row.round = task;
    shard->finish_round(row);
    shard->metrics().add_counter("tasks");
    return task;
  });
  return fr.postmortem_json();
}

TEST(FlightRecorder, PostmortemIsByteIdenticalAcrossJobs) {
  const std::string serial = postmortem_across_jobs(1);
  EXPECT_EQ(serial, postmortem_across_jobs(2));
  EXPECT_EQ(serial, postmortem_across_jobs(8));
  const auto parsed = json_parse(serial);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.at("events").as_array().size(), 6u);
  EXPECT_EQ(parsed.value.at("rounds").as_array().size(), 6u);
  EXPECT_EQ(parsed.value.at("metrics").at("counters").at("tasks").as_int(), 6);
}

TEST(FlightRecorder, FlightOnlyFanOutLeavesTraceRecorderDisabled) {
  // With a flight recorder but NO trace recorder installed, tasks must
  // still see recorder() == nullptr: the per-proposal trace
  // instrumentation stays off, and the process-wide trace counter stands
  // still (the perf_report no-op check depends on this).
  ASSERT_EQ(recorder(), nullptr);
  FlightRecorder fr;
  ScopedFlightRecorder scope(&fr);
  const std::uint64_t before = events_recorded_total();
  traced_parallel_map(2, 4, [&](std::size_t task) {
    EXPECT_EQ(recorder(), nullptr);
    EXPECT_NE(flight(), nullptr);
    flight()->record(phase_event("quiet"));
    return task;
  });
  EXPECT_EQ(fr.events_seen(), 4u);
  EXPECT_EQ(events_recorded_total(), before);
}

TEST(FlightRecorder, ShardsInheritDumpOnPredicate) {
  FlightRecorder fr;
  fr.arm_dump_on_round(2);
  ScopedFlightRecorder scope(&fr);
  traced_parallel_map(2, 4, [&](std::size_t task) {
    flight()->set_round(task);
    return task;
  });
  ASSERT_TRUE(fr.triggered());
  EXPECT_EQ(fr.trigger_reason(), "dump-on-round");
}

TEST(FlightRecorder, TraceJobsNoticeNamesBothFlags) {
  const std::string notice = trace_jobs_notice();
  EXPECT_NE(notice.find("--trace"), std::string::npos);
  EXPECT_NE(notice.find("--jobs"), std::string::npos);
  EXPECT_NE(notice.find("byte-identical"), std::string::npos);
}

TEST(MetricsWindows, RollupsCloseOnOrdinalChange) {
  MetricsRegistry m;
  m.begin_windows(4);
  ASSERT_TRUE(m.windows_armed());
  for (std::uint64_t tick = 0; tick < 10; ++tick) {
    m.window_tick(tick);
    m.add_counter("events");
    m.set_gauge("active", static_cast<double>(tick));
  }
  m.flush_windows();
  const std::vector<MetricsWindow>& w = m.windows();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].first_tick, 0u);
  EXPECT_EQ(w[0].last_tick, 3u);
  EXPECT_EQ(w[0].counter_deltas.at("events"), 4u);
  EXPECT_EQ(w[0].gauge_last.at("active"), 3.0);
  EXPECT_EQ(w[0].gauge_max.at("active"), 3.0);
  EXPECT_EQ(w[1].counter_deltas.at("events"), 4u);
  EXPECT_EQ(w[2].first_tick, 8u);
  EXPECT_EQ(w[2].last_tick, 9u);
  EXPECT_EQ(w[2].counter_deltas.at("events"), 2u);
}

TEST(MetricsWindows, OnlyMovedCountersAppearInDeltas) {
  MetricsRegistry m;
  m.add_counter("idle", 5);
  m.begin_windows(2);
  m.window_tick(0);
  m.add_counter("busy");
  m.flush_windows();
  ASSERT_EQ(m.windows().size(), 1u);
  const MetricsWindow& w = m.windows()[0];
  EXPECT_EQ(w.counter_deltas.count("idle"), 0u);
  EXPECT_EQ(w.counter_deltas.at("busy"), 1u);
}

TEST(MetricsWindows, RegressingTickStartsANewWindow) {
  // A second run restarting its round count must not merge into the
  // previous run's window: ordinal CHANGE closes, in either direction.
  MetricsRegistry m;
  m.begin_windows(8);
  m.window_tick(9);   // opens ordinal 1
  m.add_counter("c");
  m.window_tick(0);   // ordinal 0 != 1: closes, opens the restarted run's window
  m.add_counter("c");
  m.flush_windows();
  ASSERT_EQ(m.windows().size(), 2u);
  EXPECT_EQ(m.windows()[0].first_tick, 9u);
  EXPECT_EQ(m.windows()[1].first_tick, 0u);
}

TEST(MetricsWindows, CollectIncludesVirtualCloseWithoutMutating) {
  MetricsRegistry m;
  m.begin_windows(4);
  m.window_tick(0);
  m.add_counter("c");
  const std::vector<MetricsWindow> seen = m.collect_windows();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].counter_deltas.at("c"), 1u);
  EXPECT_TRUE(m.windows().empty()) << "collect_windows must not close for real";
}

TEST(MetricsWindows, MergeAppendsShardWindowsInOrder) {
  MetricsRegistry parent;
  parent.begin_windows(2);
  parent.window_tick(0);
  parent.add_counter("p");
  parent.flush_windows();
  MetricsRegistry shard;
  shard.begin_windows(2);
  shard.window_tick(0);
  shard.add_counter("s");
  parent.merge_from(shard);
  ASSERT_EQ(parent.windows().size(), 2u);
  EXPECT_EQ(parent.windows()[0].counter_deltas.at("p"), 1u);
  EXPECT_EQ(parent.windows()[1].counter_deltas.at("s"), 1u);
}

/// One update sequence shaped like sim/churn's per-event metrics, written
/// through names or through interned handles. "churn.cloud_active" is
/// written by name in both registries once, so a handle also meets an
/// entry that already exists. Two handles are never used.
void drive_churn_metrics(MetricsRegistry& m, bool handles) {
  CounterHandle arrivals(&m, "churn.arrivals");
  CounterHandle readmitted(&m, "churn.readmitted");
  GaugeHandle active(&m, "churn.active");
  GaugeHandle cloud(&m, "churn.cloud_active");
  // Never used: must leave no entry.
  [[maybe_unused]] const CounterHandle never(&m, "churn.never");
  [[maybe_unused]] const GaugeHandle never_gauge(&m, "churn.never_gauge");
  m.set_gauge("churn.cloud_active", 7.0);
  for (std::uint64_t tick = 0; tick < 11; ++tick) {
    m.window_tick(tick);
    const double a = static_cast<double>((tick * 5) % 7);
    const double c = 10.0 - static_cast<double>(tick);
    if (handles) {
      arrivals.add();
      if (tick % 3 == 0) readmitted.add(2);
      active.set(a);
      cloud.set(c);
    } else {
      m.add_counter("churn.arrivals");
      if (tick % 3 == 0) m.add_counter("churn.readmitted", 2);
      m.set_gauge("churn.active", a);
      m.set_gauge("churn.cloud_active", c);
    }
  }
}

void expect_same_windows(const std::vector<MetricsWindow>& a,
                         const std::vector<MetricsWindow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    EXPECT_EQ(a[w].first_tick, b[w].first_tick);
    EXPECT_EQ(a[w].last_tick, b[w].last_tick);
    EXPECT_EQ(a[w].counter_deltas, b[w].counter_deltas);
    EXPECT_EQ(a[w].gauge_last, b[w].gauge_last);
    EXPECT_EQ(a[w].gauge_max, b[w].gauge_max);
  }
}

TEST(MetricsHandles, ExportsMatchNameKeyedUpdatesWithWindowsOffAndArmed) {
  for (const std::uint64_t window_len : {std::uint64_t{0}, std::uint64_t{4}}) {
    MetricsRegistry by_name;
    MetricsRegistry by_handle;
    by_name.begin_windows(window_len);
    by_handle.begin_windows(window_len);
    drive_churn_metrics(by_name, /*handles=*/false);
    drive_churn_metrics(by_handle, /*handles=*/true);
    EXPECT_EQ(JsonValue(by_handle.deterministic_json()).dump(),
              JsonValue(by_name.deterministic_json()).dump())
        << "window_len=" << window_len;
    EXPECT_EQ(to_prometheus_text(by_handle), to_prometheus_text(by_name));
    expect_same_windows(by_handle.collect_windows(), by_name.collect_windows());
    EXPECT_EQ(by_handle.collect_windows().empty(), window_len == 0);
    EXPECT_EQ(to_prometheus_text(by_handle).find("never"), std::string::npos)
        << "a handle that is never used must leave no entry";
  }
}

TEST(Exposition, RendersCountersGaugesAndLabels) {
  MetricsRegistry m;
  m.add_counter("churn.arrivals", 12);
  m.add_counter("shard.rounds{shard=\"3\"}", 7);
  m.set_gauge("churn.active", 5.0);
  const std::string text = to_prometheus_text(m);
  EXPECT_NE(text.find("# TYPE dmra_churn_arrivals counter\n"), std::string::npos);
  EXPECT_NE(text.find("dmra_churn_arrivals 12\n"), std::string::npos);
  EXPECT_NE(text.find("dmra_shard_rounds{shard=\"3\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("dmra_churn_active 5\n"), std::string::npos);
}

TEST(Exposition, WindowSeriesCarryWindowLabels) {
  MetricsRegistry m;
  m.begin_windows(2);
  m.window_tick(0);
  m.add_counter("events", 3);
  m.window_tick(2);
  m.add_counter("events", 1);
  m.flush_windows();
  const std::string text = to_prometheus_text(m);
  EXPECT_NE(text.find("dmra_events_delta{window=\"0\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("dmra_events_delta{window=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("dmra_window_first_tick{window=\"0\"} 0\n"), std::string::npos);
}

TEST(Exposition, TimersAreExcluded) {
  MetricsRegistry m;
  m.record_timer("secret.wall", 1234);
  m.add_counter("visible");
  const std::string text = to_prometheus_text(m);
  EXPECT_EQ(text.find("secret"), std::string::npos)
      << "wall-clock timers must stay out of the machine-readable surface";
  EXPECT_NE(text.find("dmra_visible 1\n"), std::string::npos);
}

TEST(Exposition, OutputIsDeterministic) {
  const auto build = [] {
    MetricsRegistry m;
    m.add_counter("b.two", 2);
    m.add_counter("a.one", 1);
    m.set_gauge("z", 0.5);
    return to_prometheus_text(m);
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace dmra::obs
