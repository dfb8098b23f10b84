#include "radio/channel.hpp"

#include <algorithm>
#include <cmath>

#include "radio/units.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace dmra {

double pathloss_db(double distance_m, double min_distance_m) {
  PathlossParams params;
  params.min_distance_m = min_distance_m;
  return pathloss_db(PathlossModel::kPaperEq18, distance_m, params);
}

double shadowing_db(const ChannelConfig& cfg, std::uint32_t ue_key, std::uint32_t bs_key) {
  DMRA_REQUIRE(cfg.shadowing_sigma_db >= 0.0);
  if (cfg.shadowing_sigma_db == 0.0) return 0.0;
  // One deterministic draw per link: seed a throwaway stream from the
  // link identity. The stream name keeps it independent of any other use
  // of the same seed.
  const std::uint64_t link =
      (static_cast<std::uint64_t>(ue_key) << 32) | static_cast<std::uint64_t>(bs_key);
  Rng rng("shadowing", cfg.shadowing_seed ^ link);
  return rng.gaussian(0.0, cfg.shadowing_sigma_db);
}

namespace {

double model_loss_db(const ChannelConfig& cfg, double distance_m) {
  PathlossParams params = cfg.pathloss_params;
  params.min_distance_m = cfg.min_distance_m;
  return pathloss_db(cfg.pathloss_model, distance_m, params);
}

}  // namespace

double noise_plus_interference_mw(const ChannelConfig& cfg, double rrb_bandwidth_hz) {
  DMRA_REQUIRE(rrb_bandwidth_hz > 0.0);
  const double noise_mw = cfg.noise_model == NoiseModel::kPsd
                              ? dbm_to_mw(cfg.noise_dbm) * rrb_bandwidth_hz
                              : dbm_to_mw(cfg.noise_dbm);
  const double interference_mw = cfg.interference_psd_mw_hz * rrb_bandwidth_hz;
  return noise_mw + interference_mw;
}

double link_loss_db(const ChannelConfig& cfg, double distance_m, std::uint32_t ue_key,
                    std::uint32_t bs_key) {
  return model_loss_db(cfg, distance_m) + shadowing_db(cfg, ue_key, bs_key);
}

double received_power_mw(const ChannelConfig& cfg, double distance_m) {
  return dbm_to_mw(cfg.tx_power_dbm - model_loss_db(cfg, distance_m));
}

double sinr(const ChannelConfig& cfg, double distance_m, double rrb_bandwidth_hz) {
  return sinr_from_loss(cfg, model_loss_db(cfg, distance_m),
                        noise_plus_interference_mw(cfg, rrb_bandwidth_hz));
}

double sinr(const ChannelConfig& cfg, double distance_m, double rrb_bandwidth_hz,
            std::uint32_t ue_key, std::uint32_t bs_key) {
  return sinr_from_loss(cfg, link_loss_db(cfg, distance_m, ue_key, bs_key),
                        noise_plus_interference_mw(cfg, rrb_bandwidth_hz));
}

double sinr(const ChannelConfig& cfg, const Point& ue, const Point& bs,
            double rrb_bandwidth_hz) {
  return sinr(cfg, distance_m(ue, bs), rrb_bandwidth_hz);
}

}  // namespace dmra
