// Multi-seed sweep runner — the harness behind every figure bench.
//
// An experiment is a sweep over x (UE count, ρ, …): at each x it builds a
// scenario per seed, runs every allocator, validates feasibility, and
// aggregates a chosen metric into mean ± 95% CI. The result renders as a
// paper-style table (one row per x, one column per algorithm).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mec/allocator.hpp"
#include "sim/metrics.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

namespace dmra {

struct ExperimentSpec {
  std::string title;
  std::string x_label = "x";
  std::vector<double> xs;

  /// Scenario for a sweep point (seed supplied separately by the runner).
  std::function<ScenarioConfig(double x)> make_config;

  /// Allocators to compare at a sweep point (fresh instances per x so an
  /// algorithm parameter — e.g. ρ — can itself be the sweep variable).
  std::function<std::vector<AllocatorPtr>(double x)> make_allocators;

  /// Metric to aggregate; defaults to total SP profit (Eq. 11).
  std::function<double(const RunMetrics&)> metric;
  std::string metric_label = "total profit";

  std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};

  /// Worker threads for the per-seed replications of each sweep point.
  /// 0 = hardware concurrency; 1 = serial. Results — including traced
  /// exports when a recorder is installed (obs/shard.hpp) — are
  /// byte-identical for every value: each seed is an independent task
  /// whose metric values (and trace shard) are reduced on the collecting
  /// thread in seed order.
  std::size_t jobs = 0;
};

struct ExperimentResult {
  std::string title;
  std::string x_label;
  std::string metric_label;
  std::vector<std::string> algo_names;
  std::vector<double> xs;
  /// cells[xi][ai] — aggregated metric of algorithm ai at sweep point xi.
  std::vector<std::vector<Summary>> cells;

  /// "x | algo1 | algo2 ..." with mean ± 95% CI entries.
  Table to_table() const;

  /// Pairwise Welch t-tests of the first algorithm against every other,
  /// one row per (x, challenger): mean difference, t statistic, and
  /// whether the gap is significant at 95%. Requires ≥ 2 algorithms and
  /// ≥ 2 seeds.
  Table to_significance_table() const;

  /// Plain columnar data ("x mean1 ci1 mean2 ci2 ..."), gnuplot-ready.
  std::string to_dat() const;

  /// A gnuplot script plotting to_dat() output from `data_filename` with
  /// error bars, one series per algorithm, titled like the paper figure.
  std::string to_gnuplot(const std::string& data_filename) const;
};

/// Run the sweep. Every allocation is re-validated against Eq. 12–16, which
/// turns every bench run into a system test. Throws ContractViolation on
/// spec misuse or on an infeasible allocation.
ExperimentResult run_experiment(const ExperimentSpec& spec);

/// Convenience: seeds {1..n}.
std::vector<std::uint64_t> default_seeds(std::size_t n);

}  // namespace dmra
