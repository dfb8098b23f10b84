#include "sim/experiment.hpp"

#include <numeric>
#include <optional>
#include <sstream>

#include "obs/recorder.hpp"
#include "obs/shard.hpp"
#include "sim/feasibility.hpp"
#include "util/log.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace dmra {

std::vector<std::uint64_t> default_seeds(std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  std::iota(seeds.begin(), seeds.end(), std::uint64_t{1});
  return seeds;
}

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  DMRA_REQUIRE_MSG(!spec.xs.empty(), "experiment needs at least one sweep point");
  DMRA_REQUIRE_MSG(static_cast<bool>(spec.make_config), "make_config is required");
  DMRA_REQUIRE_MSG(static_cast<bool>(spec.make_allocators), "make_allocators is required");
  DMRA_REQUIRE_MSG(!spec.seeds.empty(), "experiment needs at least one seed");

  const auto metric = spec.metric ? spec.metric
                                  : [](const RunMetrics& m) { return m.total_profit; };

  ExperimentResult result;
  result.title = spec.title;
  result.x_label = spec.x_label;
  result.metric_label = spec.metric_label;
  result.xs = spec.xs;

  // Tracing note: the recorder is thread-local, so the per-seed fan-out
  // below goes through traced_parallel_map — each replication records
  // into its own shard and the shards merge back here in seed order, so
  // a traced run exports byte-identical files for every spec.jobs value.
  obs::TraceRecorder* const rec = obs::recorder();

  for (std::size_t xi = 0; xi < spec.xs.size(); ++xi) {
    const double x = spec.xs[xi];
    std::optional<obs::ScopedTimer> sweep_timer;
    if (rec != nullptr) {
      sweep_timer.emplace(&rec->metrics(), std::string("experiment.sweep_point"));
      rec->metrics().add_counter("experiment.sweep_points");
      obs::TraceEvent e;
      e.kind = obs::EventKind::kPhase;
      e.label = "sim/experiment:sweep-point";
      e.value = xi;
      rec->record(e);
    }
    // Fan the per-seed replications across workers. Every task gets its
    // own scenario and allocator set (created here, on the coordinating
    // thread — make_allocators need not be thread-safe), so seeds share
    // no mutable state; the reduction happens below in seed order, which
    // makes the result byte-identical to the serial loop for any jobs.
    std::vector<std::vector<AllocatorPtr>> per_seed_algos;
    per_seed_algos.reserve(spec.seeds.size());
    for (std::size_t si = 0; si < spec.seeds.size(); ++si) {
      per_seed_algos.push_back(spec.make_allocators(x));
      DMRA_REQUIRE_MSG(!per_seed_algos.back().empty(),
                       "make_allocators returned no algorithms");
      DMRA_REQUIRE_MSG(per_seed_algos.back().size() == per_seed_algos.front().size(),
                       "make_allocators must return the same roster on every call");
    }
    if (result.algo_names.empty()) {
      for (const auto& a : per_seed_algos.front()) result.algo_names.push_back(a->name());
    } else {
      DMRA_REQUIRE_MSG(result.algo_names.size() == per_seed_algos.front().size(),
                       "algorithm set must be identical at every sweep point");
    }
    const ScenarioConfig config = spec.make_config(x);

    const auto per_seed =
        obs::traced_parallel_map(spec.jobs, spec.seeds.size(), [&](std::size_t si) {
          const Scenario scenario = generate_scenario(config, spec.seeds[si]);
          const std::vector<AllocatorPtr>& algos = per_seed_algos[si];
          std::vector<double> values(algos.size());
          for (std::size_t ai = 0; ai < algos.size(); ++ai) {
            const Allocation alloc = algos[ai]->allocate(scenario);
            const FeasibilityReport report = check_feasibility(scenario, alloc);
            DMRA_REQUIRE_MSG(report.ok, algos[ai]->name() + " produced an infeasible " +
                                            "allocation: " +
                                            (report.violations.empty()
                                                 ? std::string("?")
                                                 : report.violations.front()));
            values[ai] = metric(evaluate(scenario, alloc));
          }
          return values;
        });

    std::vector<RunningStats> stats(result.algo_names.size());
    for (const std::vector<double>& values : per_seed)
      for (std::size_t ai = 0; ai < stats.size(); ++ai) stats[ai].add(values[ai]);

    std::vector<Summary> row;
    row.reserve(stats.size());
    for (const RunningStats& s : stats) {
      Summary sum;
      sum.count = s.count();
      sum.mean = s.mean();
      sum.stddev = s.stddev();
      sum.stderr_mean = s.stderr_mean();
      sum.min = s.min();
      sum.max = s.max();
      row.push_back(sum);
    }
    result.cells.push_back(std::move(row));
    if (rec != nullptr)
      rec->metrics().add_counter("experiment.replications",
                                 spec.seeds.size() * result.algo_names.size());
    DMRA_INFO("experiment '" << spec.title << "': finished x=" << x);
  }
  return result;
}

Table ExperimentResult::to_significance_table() const {
  DMRA_REQUIRE_MSG(algo_names.size() >= 2, "need a challenger to compare against");
  Table table({x_label, "comparison", "mean diff", "t", "df", "significant (95%)"});
  for (std::size_t xi = 0; xi < xs.size(); ++xi) {
    const Summary& lead = cells[xi][0];
    for (std::size_t ai = 1; ai < cells[xi].size(); ++ai) {
      const Summary& other = cells[xi][ai];
      const WelchResult w =
          welch_t_test(lead.mean, lead.stddev * lead.stddev, lead.count, other.mean,
                       other.stddev * other.stddev, other.count);
      table.add_row({fmt(xs[xi], 0), algo_names[0] + " vs " + algo_names[ai],
                     fmt(lead.mean - other.mean), fmt(w.t), fmt(w.df, 1),
                     w.significant_95 ? "yes" : "no"});
    }
  }
  return table;
}

std::string ExperimentResult::to_dat() const {
  std::ostringstream os;
  os << "# " << title << '\n' << "# " << x_label;
  for (const std::string& name : algo_names) os << ' ' << name << " ci95";
  os << '\n';
  for (std::size_t xi = 0; xi < xs.size(); ++xi) {
    os << xs[xi];
    for (const Summary& s : cells[xi]) os << ' ' << s.mean << ' ' << 1.96 * s.stderr_mean;
    os << '\n';
  }
  return os.str();
}

std::string ExperimentResult::to_gnuplot(const std::string& data_filename) const {
  std::ostringstream os;
  os << "set title \"" << title << "\"\n"
     << "set xlabel \"" << x_label << "\"\n"
     << "set ylabel \"" << metric_label << "\"\n"
     << "set key left top\nset grid\nset style data linespoints\n"
     << "plot ";
  for (std::size_t ai = 0; ai < algo_names.size(); ++ai) {
    if (ai) os << ", \\\n     ";
    const std::size_t mean_col = 2 + 2 * ai;
    os << '"' << data_filename << "\" using 1:" << mean_col << ':' << mean_col + 1
       << " with yerrorlines title \"" << algo_names[ai] << '"';
  }
  os << '\n';
  return os.str();
}

Table ExperimentResult::to_table() const {
  std::vector<std::string> header{x_label};
  for (const std::string& name : algo_names) header.push_back(name);
  Table table(std::move(header));
  for (std::size_t xi = 0; xi < xs.size(); ++xi) {
    std::vector<std::string> row{fmt(xs[xi], xs[xi] == static_cast<long long>(xs[xi]) ? 0 : 2)};
    for (const Summary& s : cells[xi]) row.push_back(fmt_pm(s.mean, 1.96 * s.stderr_mean));
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace dmra
