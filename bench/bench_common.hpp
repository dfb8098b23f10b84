// Shared plumbing for the figure benches: paper-default configuration,
// the paper's algorithm roster, and result printing.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dmra/dmra.hpp"

namespace dmra_bench {

/// ScenarioConfig with the paper's §VI-A values; callers override ι,
/// placement, and UE count per figure.
inline dmra::ScenarioConfig paper_config() { return dmra::ScenarioConfig{}; }

/// Every bench takes --jobs: worker threads for the per-seed replication
/// fan-out (0 = hardware concurrency, 1 = serial). Results are identical
/// for every value — parallelism only changes wall-clock.
inline void add_jobs_flag(dmra::Cli& cli) {
  cli.add_flag("jobs", "0", dmra::Cli::whole(0),
               "worker threads for per-seed replication (0 = hardware concurrency)");
}

/// Every bench takes --trace / --round-csv / --manifest: observability
/// exports (docs/OBSERVABILITY.md, docs/PROVENANCE.md). Empty (the
/// default) = disabled; disabled tracing is a strict no-op in the
/// instrumented code paths. All three are jobs-invariant: a traced
/// --jobs=8 run writes byte-identical files to --jobs=1 (obs/shard.hpp).
inline void add_obs_flags(dmra::Cli& cli) {
  const dmra::Cli::Kind text = dmra::Cli::text();
  cli.add_flag("trace", "", text, "write a Chrome trace-event JSON of the run to this path");
  cli.add_flag("round-csv", "", text, "write per-round aggregate metrics as CSV to this path");
  cli.add_flag("manifest", "", text,
               "write a dmra-manifest/1 run-provenance JSON to this path");
  cli.add_flag("metrics-out", "", text,
               "write a Prometheus text exposition of the run's metrics "
               "(flight + trace registries) to this path");
  cli.add_flag("metrics-window", "0", dmra::Cli::whole(0),
               "fixed-window metrics rollup length in logical rounds/events "
               "(0 = windowing off; docs/OBSERVABILITY.md)");
  cli.add_flag("postmortem", "", text,
               "write the dmra-postmortem/1 flight-recorder dump to this path");
  cli.add_flag("dump-on", "", text,
               "explicit flight-recorder trigger predicate, e.g. \"round=200\"");
}

/// RAII observability session for a bench main. When --trace or
/// --round-csv was given, installs a TraceRecorder for the session's
/// lifetime (parallel sections shard per task and merge back
/// deterministically — obs/shard.hpp) and writes the requested exports,
/// plus a metrics summary to stdout, on destruction. When --manifest was
/// given, also writes a run-provenance manifest (obs/manifest.hpp)
/// capturing the flag snapshot, scenario config, seeds, jobs, fault spec,
/// and every export path the bench reported via note_output().
///
/// Independently of tracing, a FlightRecorder (obs/flight.hpp) is
/// *always* installed for the session's lifetime: the last-N-events ring
/// keeps rolling at steady-state-allocation-free cost, and a trigger
/// (BS crash, audit violation, SLO breach, --dump-on) freezes it for the
/// post-mortem. --postmortem writes the dmra-postmortem/1 dump (trigger:
/// null when nothing fired), --metrics-out writes the Prometheus text
/// exposition of the combined flight + trace registries, and
/// --metrics-window arms fixed-window rollups inside both artifacts.
///
/// Distinct export flags must name distinct paths; a collision is a hard
/// error (exit 2) rather than a silent overwrite.
class ObsSession {
 public:
  explicit ObsSession(const dmra::Cli& cli, const std::string& program = "bench")
      : trace_path_(cli.get_string("trace")),
        csv_path_(cli.get_string("round-csv")),
        manifest_path_(cli.get_string("manifest")),
        metrics_path_(cli.get_string("metrics-out")),
        postmortem_path_(cli.get_string("postmortem")),
        flight_(flight_config(cli)) {
    input_.program = program;
    input_.flags = cli.values();
    if (auto it = input_.flags.find("faults"); it != input_.flags.end())
      input_.fault_spec = it->second;
    reject_duplicate_paths();
    flight_.set_fault_context(input_.fault_spec);
    arm_dump_on(cli.get_string("dump-on"));
    flight_install_.emplace(&flight_);
    if (enabled()) {
      install_.emplace(&recorder_);
      // Tracing composes with parallelism by construction; say so once
      // so nobody serializes a run out of caution (docs/OBSERVABILITY.md).
      std::cerr << dmra::obs::trace_jobs_notice() << '\n';
    }
  }

  ~ObsSession() {
    install_.reset();         // uninstall before exporting
    flight_install_.reset();  // ditto: the rings are now quiescent
    if (enabled()) {
      if (!trace_path_.empty()) {
        write(trace_path_, recorder_.to_chrome_trace_json());
        input_.outputs.emplace_back("trace", trace_path_);
      }
      if (!csv_path_.empty()) {
        write(csv_path_, recorder_.to_round_csv());
        input_.outputs.emplace_back("round-csv", csv_path_);
      }
      if (!recorder_.metrics().empty())
        std::cout << "\n== observability metrics ==\n"
                  << recorder_.metrics().to_table().to_aligned();
    }
    if (!postmortem_path_.empty()) {
      write(postmortem_path_, flight_.postmortem_json());
      input_.outputs.emplace_back("postmortem", postmortem_path_);
    }
    if (!metrics_path_.empty()) {
      // Flight first so the always-on serving counters lead; trace
      // counters (when traced) extend rather than replace them.
      dmra::obs::MetricsRegistry combined;
      combined.merge_from(flight_.metrics());
      if (enabled()) combined.merge_from(recorder_.metrics());
      write(metrics_path_, dmra::obs::to_prometheus_text(combined));
      input_.outputs.emplace_back("metrics-out", metrics_path_);
    }
    if (!manifest_path_.empty()) {
      input_.metrics = enabled() ? &recorder_.metrics() : nullptr;
      write(manifest_path_, dmra::obs::manifest_to_json(input_));
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// True iff tracing (trace and/or round CSV) is active.
  bool enabled() const { return !trace_path_.empty() || !csv_path_.empty(); }

  /// The session's always-on flight recorder (installed thread-local for
  /// the session's lifetime; benches may read triggers / inject SLO state).
  dmra::obs::FlightRecorder& flight_recorder() { return flight_; }

  /// Record the generator configuration the run used (manifest provenance).
  void describe_scenario(const dmra::ScenarioConfig& cfg) {
    input_.scenario_config = dmra::scenario_config_json(cfg);
  }

  /// Record the replication inputs the run used (manifest provenance).
  void describe_run(std::vector<std::uint64_t> seeds, std::size_t jobs) {
    input_.seeds = std::move(seeds);
    input_.jobs = jobs;
  }

  /// Report a non-observability export (bench JSON, series CSV, ...) so the
  /// manifest cross-links every file the run produced.
  void note_output(const std::string& kind, const std::string& path) {
    input_.outputs.emplace_back(kind, path);
  }

 private:
  static dmra::obs::FlightRecorder::Config flight_config(const dmra::Cli& cli) {
    dmra::obs::FlightRecorder::Config config;
    const std::size_t window = cli.get_size("metrics-window");
    if (window > 0) config.window_len = window;
    return config;
  }

  /// --dump-on grammar: "round=K". A malformed predicate is fatal — a
  /// bench silently never dumping would defeat the whole point.
  void arm_dump_on(const std::string& text) {
    if (text.empty()) return;
    const std::string prefix = "round=";
    std::uint64_t round = 0;
    if (text.rfind(prefix, 0) == 0) {
      const char* begin = text.data() + prefix.size();
      const char* end = text.data() + text.size();
      if (begin != end &&
          std::from_chars(begin, end, round).ptr == end) {
        flight_.arm_dump_on_round(round);
        return;
      }
    }
    std::cerr << "error: --dump-on expects \"round=K\", got '" << text << "'\n";
    std::exit(1);
  }

  void reject_duplicate_paths() const {
    const std::pair<const char*, const std::string*> paths[] = {
        {"--trace", &trace_path_},
        {"--round-csv", &csv_path_},
        {"--manifest", &manifest_path_},
        {"--metrics-out", &metrics_path_},
        {"--postmortem", &postmortem_path_},
    };
    for (std::size_t a = 0; a < std::size(paths); ++a)
      for (std::size_t b = a + 1; b < std::size(paths); ++b)
        if (!paths[a].second->empty() && *paths[a].second == *paths[b].second) {
          std::cerr << "error: " << paths[a].first << " and " << paths[b].first
                    << " both write to '" << *paths[a].second
                    << "' — each export needs its own path\n";
          std::exit(2);
        }
  }

  static void write(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << '\n';
      return;
    }
    out << content;
    std::cout << "(observability export written to " << path << ")\n";
  }

  std::string trace_path_;
  std::string csv_path_;
  std::string manifest_path_;
  std::string metrics_path_;
  std::string postmortem_path_;
  dmra::obs::ManifestInput input_;
  dmra::obs::TraceRecorder recorder_;
  dmra::obs::FlightRecorder flight_;
  std::optional<dmra::obs::ScopedTraceRecorder> install_;
  std::optional<dmra::obs::ScopedFlightRecorder> flight_install_;
};

/// Every bench takes --faults: a fault-injection spec (sim/faults.hpp
/// grammar, docs/RESILIENCE.md) applied to the DMRA runs. Empty (the
/// default) = the fault-free direct solver, byte-identical to before the
/// flag existed.
inline void add_fault_flags(dmra::Cli& cli) {
  cli.add_flag("faults", "", dmra::Cli::text(),
               "run DMRA decentralized under a fault spec, e.g. "
               "\"loss=0.1,crashes=2,seed=7\" (docs/RESILIENCE.md)");
}

/// The parsed --faults spec, or nullopt when the flag is empty / injects
/// nothing. Spec errors are fatal: a bench silently falling back to
/// fault-free DMRA would corrupt a resilience sweep.
inline std::optional<dmra::FaultSpec> faults_from(const dmra::Cli& cli) {
  const std::string text = cli.get_string("faults");
  if (text.empty()) return std::nullopt;
  try {
    dmra::FaultSpec spec = dmra::parse_fault_spec(text);
    if (!spec.any()) return std::nullopt;
    return spec;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    std::exit(1);
  }
}

/// The DMRA entry for a bench roster: the direct solver normally, the
/// fault-injected decentralized runtime when --faults asks for one.
inline dmra::AllocatorPtr make_dmra(const dmra::DmraConfig& cfg,
                                    const std::optional<dmra::FaultSpec>& faults) {
  if (faults) return std::make_unique<dmra::FaultyDmraAllocator>(*faults, cfg);
  return std::make_unique<dmra::DmraAllocator>(cfg);
}

/// The roster of Figs. 2–5: DMRA vs DCSP vs NonCo.
inline std::vector<dmra::AllocatorPtr> paper_allocators(
    const dmra::DmraConfig& cfg,
    const std::optional<dmra::FaultSpec>& faults = std::nullopt) {
  std::vector<dmra::AllocatorPtr> algos;
  algos.push_back(make_dmra(cfg, faults));
  algos.push_back(std::make_unique<dmra::DcspAllocator>());
  algos.push_back(std::make_unique<dmra::NonCoAllocator>());
  return algos;
}

/// Print the experiment table plus a per-column CSV block when asked;
/// optionally also write the CSV to `csv_path` (empty = don't).
inline void print_result(const dmra::ExperimentResult& result, bool csv,
                         const std::string& csv_path = "") {
  std::cout << "== " << result.title << " ==\n";
  std::cout << "metric: " << result.metric_label << " (mean ± 95% CI over "
            << (result.cells.empty() ? 0 : result.cells[0][0].count) << " seeds)\n\n";
  const dmra::Table table = result.to_table();
  std::cout << table.to_aligned() << '\n';
  if (csv) std::cout << table.to_csv() << '\n';
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::cerr << "cannot write " << csv_path << '\n';
    } else {
      out << table.to_csv();
      std::cout << "(series written to " << csv_path << ")\n";
    }
  }
}

/// How often the first algorithm (DMRA) strictly leads every other column —
/// the headline comparison of Figs. 2–5 — plus Welch t-tests of each gap.
inline void print_dominance(const dmra::ExperimentResult& result) {
  if (result.algo_names.size() < 2) return;
  std::size_t wins = 0;
  for (const auto& row : result.cells) {
    bool best = true;
    for (std::size_t ai = 1; ai < row.size(); ++ai)
      if (row[0].mean <= row[ai].mean) best = false;
    if (best) ++wins;
  }
  std::cout << "shape check: " << result.algo_names[0] << " leads at " << wins << "/"
            << result.cells.size() << " sweep points\n";
  if (!result.cells.empty() && result.cells[0][0].count >= 2) {
    std::cout << "\nsignificance (Welch, two-sided 95%):\n"
              << result.to_significance_table().to_aligned();
  }
}

}  // namespace dmra_bench
