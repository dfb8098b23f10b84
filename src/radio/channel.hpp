// Uplink channel model (paper §VI-A).
//
// Path loss follows Eq. 18: PL(dB) = 140.7 + 36.7·log10(d_km); noise is a
// power spectral density (see DESIGN.md on the −170 dBm reading); SINR is
// computed per RRB. Interference is optional: intra-cell OFDMA is
// orthogonal, so the default channel is SNR-only; an activity-factor
// inter-cell interference term can be enabled for ablations.
#pragma once

#include <cstdint>

#include "geometry/geometry.hpp"
#include "radio/pathloss.hpp"
#include "radio/units.hpp"

namespace dmra {

/// How ChannelConfig::noise_dbm is interpreted.
enum class NoiseModel {
  /// noise_dbm is the total noise power in one RRB (the paper-literal
  /// reading of "the noise in the uplink channel is −170 dBm"; this is
  /// what reproduces the paper's figures — see DESIGN.md §3).
  kTotalPerRrb,
  /// noise_dbm is a power spectral density in dBm/Hz, integrated over the
  /// RRB bandwidth (the physically-conventional reading; radio becomes
  /// far scarcer and distance far more punishing — ablation bench abl1).
  kPsd,
};

/// Channel parameters; defaults are the paper's simulation values.
struct ChannelConfig {
  /// UE transmit power, dBm (paper: 10 dBm).
  double tx_power_dbm = 10.0;
  /// Uplink noise level, dBm; interpreted per `noise_model`.
  double noise_dbm = -170.0;
  NoiseModel noise_model = NoiseModel::kTotalPerRrb;
  /// Path loss below this distance is clamped (model diverges at d → 0).
  double min_distance_m = 1.0;
  /// Extra inter-cell interference, expressed as a power spectral density
  /// in mW/Hz received at the BS. 0 disables interference (SNR channel).
  double interference_psd_mw_hz = 0.0;

  /// Large-scale propagation model; the paper's Eq. 18 by default.
  PathlossModel pathloss_model = PathlossModel::kPaperEq18;
  /// Extra parameters for the non-paper models (carrier, antenna heights).
  PathlossParams pathloss_params;

  /// Log-normal shadowing standard deviation in dB. 0 disables shadowing
  /// (the paper models none). Each (UE, BS) link gets one deterministic
  /// draw derived from (shadowing_seed, ue_key, bs_key), so scenarios
  /// stay reproducible and every component sees the same channel.
  double shadowing_sigma_db = 0.0;
  std::uint64_t shadowing_seed = 0;
};

/// Path loss of Eq. 18 in dB at `distance_m` meters (clamped below
/// `min_distance_m`). Shorthand for pathloss_db(kPaperEq18, ...).
double pathloss_db(double distance_m, double min_distance_m = 1.0);

/// The deterministic log-normal shadowing term for one link, in dB
/// (zero-mean, cfg.shadowing_sigma_db). `ue_key`/`bs_key` identify the
/// link endpoints (any stable ids). 0 dB when shadowing is disabled.
double shadowing_db(const ChannelConfig& cfg, std::uint32_t ue_key, std::uint32_t bs_key);

/// Total large-scale link loss in dB: model path loss plus shadowing.
double link_loss_db(const ChannelConfig& cfg, double distance_m, std::uint32_t ue_key,
                    std::uint32_t bs_key);

/// Received power in mW at the BS from a UE at `distance_m` meters
/// (path loss only; no shadowing).
double received_power_mw(const ChannelConfig& cfg, double distance_m);

/// The SINR denominator in mW: the noise in one RRB of `rrb_bandwidth_hz`
/// (per noise_model) plus the interference term. It depends on the config
/// alone, so a loop over links computes it once.
double noise_plus_interference_mw(const ChannelConfig& cfg, double rrb_bandwidth_hz);

/// Per-RRB SINR (linear) of a link whose total loss is `loss_db`
/// (link_loss_db), over a denominator from noise_plus_interference_mw.
/// sinr() computes both per call and divides the same way.
inline double sinr_from_loss(const ChannelConfig& cfg, double loss_db,
                             double noise_plus_interference_mw) {
  return dbm_to_mw(cfg.tx_power_dbm - loss_db) / noise_plus_interference_mw;
}

/// Per-RRB SINR (linear) for a UE at `distance_m` meters, with the RRB
/// bandwidth `rrb_bandwidth_hz` deciding how much noise is integrated.
/// Path loss only — use the keyed overload for shadowed links.
double sinr(const ChannelConfig& cfg, double distance_m, double rrb_bandwidth_hz);

/// Per-RRB SINR including the link's shadowing draw.
double sinr(const ChannelConfig& cfg, double distance_m, double rrb_bandwidth_hz,
            std::uint32_t ue_key, std::uint32_t bs_key);

/// Convenience overload on points (no shadowing).
double sinr(const ChannelConfig& cfg, const Point& ue, const Point& bs,
            double rrb_bandwidth_hz);

}  // namespace dmra
