// One-shot reproduction driver: regenerates every paper figure (2–7),
// writes a results directory with per-figure .dat/.gp/.csv artifacts and
// a SUMMARY.md of the shape checks. Plot with:
//
//   cd <out>; for f in fig*.gp; do gnuplot -persist "$f"; done
//
//   ./build/bench/fig_all [--out results] [--seeds 10]

#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"

namespace {

struct FigureSpec {
  int number;
  double iota;
  bool regular;
  bool rho_sweep;  // Figs. 6/7 sweep rho at 1000 UEs
};

dmra::ExperimentResult run_figure(const FigureSpec& fig, std::size_t seeds,
                                  std::size_t jobs,
                                  const std::optional<dmra::FaultSpec>& faults) {
  dmra::ExperimentSpec spec;
  spec.seeds = dmra::default_seeds(seeds);
  spec.jobs = jobs;
  if (!fig.rho_sweep) {
    spec.title = "Fig. " + std::to_string(fig.number) +
                 ": total profit of SPs vs. number of UEs (iota=" + dmra::fmt(fig.iota, 1) +
                 ", " + (fig.regular ? "regular" : "random") + " BS placement)";
    spec.x_label = "UEs";
    spec.xs = {400, 500, 600, 700, 800, 900};
    spec.make_config = [fig](double x) {
      dmra::ScenarioConfig cfg;
      cfg.num_ues = static_cast<std::size_t>(x);
      cfg.pricing.iota = fig.iota;
      cfg.placement = fig.regular ? dmra::PlacementMethod::kRegularGrid
                                  : dmra::PlacementMethod::kRandom;
      return cfg;
    };
    spec.make_allocators = [&faults](double) {
      return dmra_bench::paper_allocators({}, faults);
    };
  } else {
    const bool profit = fig.number == 6;
    spec.title = profit ? "Fig. 6: total profit of SPs vs. rho (iota=2, 1000 UEs)"
                        : "Fig. 7: total forwarded traffic load vs. rho (iota=1.1, 1000 UEs)";
    spec.x_label = "rho";
    spec.xs = {0, 50, 100, 150, 200, 300, 400};
    spec.metric_label = profit ? "total profit" : "forwarded traffic (Mbps)";
    spec.metric = [profit](const dmra::RunMetrics& m) {
      return profit ? m.total_profit : m.forwarded_traffic_mbps;
    };
    spec.make_config = [fig](double) {
      dmra::ScenarioConfig cfg;
      cfg.num_ues = 1000;
      cfg.pricing.iota = fig.iota;
      return cfg;
    };
    spec.make_allocators = [&faults](double rho) {
      std::vector<dmra::AllocatorPtr> algos;
      algos.push_back(dmra_bench::make_dmra(dmra::DmraConfig{.rho = rho}, faults));
      return algos;
    };
  }
  return dmra::run_experiment(spec);
}

void write_file(const std::filesystem::path& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

}  // namespace

int main(int argc, char** argv) {
  dmra::Cli cli;
  cli.add_flag("out", "results", dmra::Cli::text(),
               "output directory for .dat/.gp/.csv artifacts");
  cli.add_flag("seeds", "10", dmra::Cli::whole(1), "seeds per sweep point");
  dmra_bench::add_jobs_flag(cli);
  dmra_bench::add_obs_flags(cli);
  dmra_bench::add_fault_flags(cli);
  cli.parse_or_exit(argc, argv);
  const std::filesystem::path out_dir = cli.get_string("out");
  std::filesystem::create_directories(out_dir);
  const std::size_t seeds = cli.get_size("seeds");
  dmra_bench::ObsSession obs_session(cli, argv[0]);
  const std::size_t jobs = cli.get_size("jobs");
  const auto faults = dmra_bench::faults_from(cli);
  obs_session.describe_scenario(dmra_bench::paper_config());
  obs_session.describe_run(dmra::default_seeds(seeds), jobs);

  const std::vector<FigureSpec> figures = {
      {2, 2.0, true, false},  {3, 2.0, false, false}, {4, 1.1, true, false},
      {5, 1.1, false, false}, {6, 2.0, true, true},   {7, 1.1, true, true},
  };

  std::ostringstream summary;
  summary << "# Reproduction run (" << seeds << " seeds per point)\n\n";

  for (const FigureSpec& fig : figures) {
    const dmra::ExperimentResult result = run_figure(fig, seeds, jobs, faults);
    const std::string stem = "fig" + std::to_string(fig.number);
    write_file(out_dir / (stem + ".dat"), result.to_dat());
    write_file(out_dir / (stem + ".gp"), result.to_gnuplot(stem + ".dat"));
    write_file(out_dir / (stem + ".csv"), result.to_table().to_csv());
    obs_session.note_output("series-csv", (out_dir / (stem + ".csv")).string());

    summary << "## " << result.title << "\n\n```\n" << result.to_table().to_aligned()
            << "```\n";
    if (result.algo_names.size() >= 2) {
      std::size_t wins = 0;
      for (const auto& row : result.cells) {
        bool best = true;
        for (std::size_t ai = 1; ai < row.size(); ++ai)
          if (row[0].mean <= row[ai].mean) best = false;
        if (best) ++wins;
      }
      summary << "\nDMRA leads at " << wins << "/" << result.cells.size()
              << " sweep points.\n";
    } else {
      const double first = result.cells.front()[0].mean;
      const double last = result.cells.back()[0].mean;
      summary << "\nTrend " << dmra::fmt(first) << " -> " << dmra::fmt(last) << " ("
              << (fig.number == 6 ? "paper expects rising profit"
                                  : "paper expects falling forwarded load")
              << ").\n";
    }
    summary << '\n';
    std::cout << "wrote " << (out_dir / stem).string() << ".{dat,gp,csv}\n";
  }

  write_file(out_dir / "SUMMARY.md", summary.str());
  std::cout << "wrote " << (out_dir / "SUMMARY.md").string() << '\n';
  return 0;
}
