// Scenario generation from the paper's §VI-A parameters.
//
// Every field of ScenarioConfig defaults to the paper's setup: 5 SPs ×
// 5 BSs, 6 services per BS, per-(BS,service) capacity U{100..150} CRUs,
// task demand U{3..5} CRUs, rate demand U[2,6] Mbit/s, 10 MHz uplink,
// 180 kHz RRBs, 10 dBm UEs, path loss per Eq. 18, 300 m inter-site
// distance / 1200 m × 1200 m area.
//
// Generation is a pure function of (config, seed): independent named RNG
// streams drive topology, capacities, and UEs, so e.g. changing the UE
// count does not move the BS grid.
#pragma once

#include <cstdint>

#include "mec/scenario.hpp"
#include "topology/placement.hpp"
#include "util/json.hpp"

namespace dmra {

/// Spatial distribution of the UE population.
enum class UeDistribution {
  kUniform,   ///< uniform over the deployment area (the paper's setup)
  kHotspots,  ///< Gaussian clusters around random hotspot centers — the
              ///< "popular areas" the paper's introduction motivates
};

/// How UEs pick their requested service.
enum class ServicePopularity {
  kUniform,  ///< every service equally likely (the paper's setup)
  kZipf,     ///< rank-skewed: P(rank r) ∝ 1/r^s (service 0 most popular)
};

struct ScenarioConfig {
  std::size_t num_sps = 5;
  std::size_t bss_per_sp = 5;
  std::size_t num_ues = 500;

  /// Size of the global service catalog S.
  std::size_t num_services = 6;
  /// Services hosted per BS (≤ num_services; a random subset if smaller —
  /// the paper's setup hosts all six everywhere).
  std::size_t services_per_bs = 6;

  /// Per-(BS, service) CRU capacity range (inclusive).
  std::uint32_t cru_capacity_min = 100;
  std::uint32_t cru_capacity_max = 150;
  /// Per-task CRU demand range (inclusive).
  std::uint32_t cru_demand_min = 3;
  std::uint32_t cru_demand_max = 5;
  /// Per-UE uplink rate demand, bit/s.
  double rate_demand_min_bps = 2e6;
  double rate_demand_max_bps = 6e6;

  PlacementMethod placement = PlacementMethod::kRegularGrid;
  OwnershipPolicy ownership = OwnershipPolicy::kRoundRobin;
  double area_side_m = 1200.0;
  double grid_spacing_m = 300.0;
  double coverage_radius_m = 500.0;

  UeDistribution ue_distribution = UeDistribution::kUniform;
  /// Hotspot parameters (used when ue_distribution == kHotspots).
  std::size_t num_hotspots = 4;
  double hotspot_sigma_m = 120.0;  ///< cluster spread
  /// Fraction of UEs drawn from hotspots; the rest stay uniform.
  double hotspot_fraction = 0.8;

  ServicePopularity service_popularity = ServicePopularity::kUniform;
  /// Zipf exponent s (used when service_popularity == kZipf).
  double zipf_s = 1.0;

  ChannelConfig channel;
  OfdmaConfig ofdma;
  PricingConfig pricing;

  /// If > 0, an inter-cell interference PSD is derived from the generated
  /// deployment: mean received UE power at the BSs × this activity factor,
  /// spread over the uplink band (see DESIGN.md §3). 0 = SNR-only channel.
  double interference_activity_factor = 0.0;

  std::size_t num_bss() const { return num_sps * bss_per_sp; }
  Rect area() const { return Rect{0.0, 0.0, area_side_m, area_side_m}; }
};

/// Build a full, validated Scenario. Deterministic in (config, seed).
Scenario generate_scenario(const ScenarioConfig& config, std::uint64_t seed);

/// One-way provenance dump of every ScenarioConfig field (enum values as
/// the names the persistence layer uses). Run manifests embed this so a
/// recorded run documents the exact generator inputs; it is not a
/// round-trip format — scenarios persist via mec/scenario_io.hpp.
JsonObject scenario_config_json(const ScenarioConfig& config);

}  // namespace dmra
