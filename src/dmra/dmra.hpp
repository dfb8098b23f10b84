// Umbrella header for the DMRA library.
//
// Typical use:
//
//   #include "dmra/dmra.hpp"
//
//   dmra::ScenarioConfig cfg;            // paper §VI-A defaults
//   cfg.num_ues = 800;
//   const dmra::Scenario scenario = dmra::generate_scenario(cfg, /*seed=*/42);
//   const dmra::DmraResult r = dmra::solve_dmra(scenario, {.rho = 100.0});
//   const dmra::RunMetrics m = dmra::evaluate(scenario, r.allocation);
//
// See examples/quickstart.cpp for a complete walk-through.
#pragma once

#include "core/decentralized.hpp"
#include "core/dmra_allocator.hpp"
#include "core/incremental.hpp"
#include "core/preference.hpp"
#include "core/solver.hpp"

#include "baselines/dcsp.hpp"
#include "baselines/exact.hpp"
#include "baselines/greedy.hpp"
#include "baselines/nonco.hpp"
#include "baselines/random_alloc.hpp"

#include "mec/allocation.hpp"
#include "mec/allocator.hpp"
#include "mec/ids.hpp"
#include "mec/pricing.hpp"
#include "mec/resources.hpp"
#include "mec/scenario.hpp"
#include "mec/scenario_io.hpp"

#include "market/adaptive_pricing.hpp"

#include "mobility/models.hpp"

#include "net/bus.hpp"
#include "net/fault_plan.hpp"

#include "obs/chrome_trace.hpp"
#include "obs/events.hpp"
#include "obs/exposition.hpp"
#include "obs/flight.hpp"
#include "obs/latency.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/round_csv.hpp"
#include "obs/shard.hpp"

#include "radio/channel.hpp"
#include "radio/ofdma.hpp"
#include "radio/pathloss.hpp"
#include "radio/units.hpp"

#include "sim/churn.hpp"
#include "sim/experiment.hpp"
#include "sim/faults.hpp"
#include "sim/feasibility.hpp"
#include "sim/metrics.hpp"
#include "sim/qos.hpp"
#include "sim/render.hpp"

#include "topology/placement.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
