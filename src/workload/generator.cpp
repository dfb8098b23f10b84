#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "util/require.hpp"

namespace dmra {

namespace {

std::vector<std::uint32_t> host_capacities(const ScenarioConfig& cfg, Rng& rng) {
  // Choose which services this BS hosts, then draw each hosted capacity.
  std::vector<std::uint32_t> caps(cfg.num_services, 0);
  std::vector<std::size_t> service_ids(cfg.num_services);
  std::iota(service_ids.begin(), service_ids.end(), std::size_t{0});
  if (cfg.services_per_bs < cfg.num_services) rng.shuffle(service_ids);
  for (std::size_t n = 0; n < cfg.services_per_bs; ++n) {
    const std::size_t j = service_ids[n];
    caps[j] = static_cast<std::uint32_t>(
        rng.uniform_int(cfg.cru_capacity_min, cfg.cru_capacity_max));
  }
  return caps;
}

/// Zipf(s) sampler over ranks 0..n-1 via inverse-CDF on precomputed
/// cumulative weights.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) {
    DMRA_REQUIRE(n > 0);
    DMRA_REQUIRE(s >= 0.0);
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t r = 1; r <= n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t draw(Rng& rng) const {
    const double u = rng.uniform_real(0.0, 1.0);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Clamp a coordinate into the deployment area.
double clamp_coord(double v, double side) { return std::clamp(v, 0.0, side); }

Point draw_ue_position(const ScenarioConfig& cfg, const std::vector<Point>& hotspots,
                       Rng& rng) {
  if (cfg.ue_distribution == UeDistribution::kUniform || hotspots.empty() ||
      !rng.bernoulli(cfg.hotspot_fraction)) {
    return {rng.uniform_real(0.0, cfg.area_side_m), rng.uniform_real(0.0, cfg.area_side_m)};
  }
  const Point& center = hotspots[rng.index(hotspots.size())];
  return {clamp_coord(rng.gaussian(center.x, cfg.hotspot_sigma_m), cfg.area_side_m),
          clamp_coord(rng.gaussian(center.y, cfg.hotspot_sigma_m), cfg.area_side_m)};
}

double derived_interference_psd(const ScenarioConfig& cfg,
                                const std::vector<BaseStation>& bss,
                                const std::vector<UserEquipment>& ues) {
  if (cfg.interference_activity_factor <= 0.0 || ues.empty()) return 0.0;
  // Mean aggregate received UE power per BS, scaled by the fraction of UEs
  // transmitting at once, spread uniformly over the uplink band.
  double total_mw = 0.0;
  for (const BaseStation& b : bss)
    for (const UserEquipment& u : ues)
      total_mw += received_power_mw(cfg.channel, distance_m(u.position, b.position));
  const double mean_per_bs = total_mw / static_cast<double>(bss.size());
  return cfg.interference_activity_factor * mean_per_bs / cfg.ofdma.uplink_bandwidth_hz;
}

}  // namespace

Scenario generate_scenario(const ScenarioConfig& cfg, std::uint64_t seed) {
  // num_ues == 0 is legal (Scenario allows empty populations): the churn
  // driver generates the deployment alone and appends its own slot
  // universe (sim/churn.hpp).
  DMRA_REQUIRE(cfg.num_sps > 0 && cfg.bss_per_sp > 0);
  DMRA_REQUIRE(cfg.num_services > 0 && cfg.services_per_bs > 0);
  DMRA_REQUIRE(cfg.services_per_bs <= cfg.num_services);
  DMRA_REQUIRE(cfg.cru_capacity_min <= cfg.cru_capacity_max);
  DMRA_REQUIRE(cfg.cru_demand_min <= cfg.cru_demand_max);
  DMRA_REQUIRE(cfg.cru_demand_min > 0);
  DMRA_REQUIRE(cfg.rate_demand_min_bps > 0.0 &&
               cfg.rate_demand_min_bps <= cfg.rate_demand_max_bps);

  ScenarioData data;
  data.num_services = cfg.num_services;
  data.channel = cfg.channel;
  data.ofdma = cfg.ofdma;
  data.pricing = cfg.pricing;
  data.coverage_radius_m = cfg.coverage_radius_m;

  for (std::size_t k = 0; k < cfg.num_sps; ++k)
    data.sps.push_back({SpId{static_cast<std::uint32_t>(k)}, "SP-" + std::to_string(k)});

  Rng topo_rng("topology", seed);
  const std::size_t nb = cfg.num_bss();
  const std::vector<Point> sites =
      place_bss(cfg.placement, cfg.area(), nb, cfg.grid_spacing_m, topo_rng);
  const std::vector<SpId> owners = assign_owners(cfg.ownership, nb, cfg.num_sps, topo_rng);

  Rng cap_rng("capacity", seed);
  const std::uint32_t n_rrbs = cfg.ofdma.num_rrbs();
  for (std::size_t i = 0; i < nb; ++i) {
    BaseStation b;
    b.id = BsId{static_cast<std::uint32_t>(i)};
    b.sp = owners[i];
    b.position = sites[i];
    b.cru_capacity = host_capacities(cfg, cap_rng);
    b.num_rrbs = n_rrbs;
    data.bss.push_back(std::move(b));
  }

  Rng ue_rng("workload", seed);
  std::vector<Point> hotspots;
  if (cfg.ue_distribution == UeDistribution::kHotspots) {
    DMRA_REQUIRE(cfg.num_hotspots > 0);
    DMRA_REQUIRE(cfg.hotspot_sigma_m > 0.0);
    DMRA_REQUIRE(cfg.hotspot_fraction >= 0.0 && cfg.hotspot_fraction <= 1.0);
    Rng hotspot_rng("hotspots", seed);
    hotspots = sample_uniform(cfg.area(), cfg.num_hotspots, hotspot_rng);
  }
  const ZipfSampler zipf(cfg.num_services,
                         cfg.service_popularity == ServicePopularity::kZipf ? cfg.zipf_s
                                                                            : 0.0);
  for (std::size_t u = 0; u < cfg.num_ues; ++u) {
    UserEquipment e;
    e.id = UeId{static_cast<std::uint32_t>(u)};
    e.sp = SpId{static_cast<std::uint32_t>(ue_rng.index(cfg.num_sps))};
    e.position = draw_ue_position(cfg, hotspots, ue_rng);
    // The uniform branch keeps the pre-Zipf draw sequence so paper-default
    // scenarios are bit-identical across library versions.
    e.service = cfg.service_popularity == ServicePopularity::kUniform
                    ? ServiceId{static_cast<std::uint32_t>(ue_rng.index(cfg.num_services))}
                    : ServiceId{static_cast<std::uint32_t>(zipf.draw(ue_rng))};
    e.cru_demand =
        static_cast<std::uint32_t>(ue_rng.uniform_int(cfg.cru_demand_min, cfg.cru_demand_max));
    e.rate_demand_bps = ue_rng.uniform_real(cfg.rate_demand_min_bps, cfg.rate_demand_max_bps);
    data.ues.push_back(e);
  }

  data.channel.interference_psd_mw_hz = derived_interference_psd(cfg, data.bss, data.ues);

  return Scenario(std::move(data));
}

JsonObject scenario_config_json(const ScenarioConfig& cfg) {
  JsonObject o;
  o["num_sps"] = static_cast<std::uint64_t>(cfg.num_sps);
  o["bss_per_sp"] = static_cast<std::uint64_t>(cfg.bss_per_sp);
  o["num_ues"] = static_cast<std::uint64_t>(cfg.num_ues);
  o["num_services"] = static_cast<std::uint64_t>(cfg.num_services);
  o["services_per_bs"] = static_cast<std::uint64_t>(cfg.services_per_bs);
  o["cru_capacity_min"] = cfg.cru_capacity_min;
  o["cru_capacity_max"] = cfg.cru_capacity_max;
  o["cru_demand_min"] = cfg.cru_demand_min;
  o["cru_demand_max"] = cfg.cru_demand_max;
  o["rate_demand_min_bps"] = cfg.rate_demand_min_bps;
  o["rate_demand_max_bps"] = cfg.rate_demand_max_bps;
  o["placement"] = placement_name(cfg.placement);
  o["ownership"] =
      cfg.ownership == OwnershipPolicy::kRoundRobin ? "round-robin" : "shuffled";
  o["area_side_m"] = cfg.area_side_m;
  o["grid_spacing_m"] = cfg.grid_spacing_m;
  o["coverage_radius_m"] = cfg.coverage_radius_m;
  o["ue_distribution"] =
      cfg.ue_distribution == UeDistribution::kUniform ? "uniform" : "hotspots";
  o["num_hotspots"] = static_cast<std::uint64_t>(cfg.num_hotspots);
  o["hotspot_sigma_m"] = cfg.hotspot_sigma_m;
  o["hotspot_fraction"] = cfg.hotspot_fraction;
  o["service_popularity"] =
      cfg.service_popularity == ServicePopularity::kUniform ? "uniform" : "zipf";
  o["zipf_s"] = cfg.zipf_s;
  JsonObject channel;
  channel["tx_power_dbm"] = cfg.channel.tx_power_dbm;
  channel["noise_dbm"] = cfg.channel.noise_dbm;
  channel["noise_model"] =
      cfg.channel.noise_model == NoiseModel::kPsd ? "psd" : "total-per-rrb";
  channel["min_distance_m"] = cfg.channel.min_distance_m;
  channel["interference_psd_mw_hz"] = cfg.channel.interference_psd_mw_hz;
  channel["pathloss_model"] = pathloss_model_name(cfg.channel.pathloss_model);
  channel["shadowing_sigma_db"] = cfg.channel.shadowing_sigma_db;
  channel["shadowing_seed"] = cfg.channel.shadowing_seed;
  o["channel"] = std::move(channel);
  JsonObject ofdma;
  ofdma["uplink_bandwidth_hz"] = cfg.ofdma.uplink_bandwidth_hz;
  ofdma["rrb_bandwidth_hz"] = cfg.ofdma.rrb_bandwidth_hz;
  o["ofdma"] = std::move(ofdma);
  JsonObject pricing;
  pricing["b"] = cfg.pricing.b;
  pricing["iota"] = cfg.pricing.iota;
  pricing["sigma"] = cfg.pricing.sigma;
  pricing["transmission"] =
      cfg.pricing.transmission == TransmissionPricing::kLinear ? "linear" : "power";
  pricing["m_k"] = cfg.pricing.m_k;
  pricing["m_k_o"] = cfg.pricing.m_k_o;
  pricing["min_distance_m"] = cfg.pricing.min_distance_m;
  o["pricing"] = std::move(pricing);
  o["interference_activity_factor"] = cfg.interference_activity_factor;
  return o;
}

}  // namespace dmra
