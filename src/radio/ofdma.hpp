// OFDMA radio-resource-block (RRB) accounting (paper §III-C).
//
// e(u,i) = W_sub · log2(1 + λ(u,i))        (Eq. 2)
// n(u,i) = ceil(w_u / e(u,i))              (Eq. 3)
// A BS has N_i = floor(W_i / W_sub) RRBs available for uplink offloading.
#pragma once

#include <cstdint>
#include <limits>

namespace dmra {

/// OFDMA numerology; defaults are the paper's (10 MHz uplink, 180 kHz RRB,
/// i.e. an LTE resource block).
struct OfdmaConfig {
  double uplink_bandwidth_hz = 10e6;
  double rrb_bandwidth_hz = 180e3;

  /// N_i: number of allocatable RRBs.
  std::uint32_t num_rrbs() const;
};

/// Eq. 2: achievable rate (bit/s) of one RRB at linear SINR `sinr_linear`.
double rrb_rate_bps(double rrb_bandwidth_hz, double sinr_linear);

/// n(u,i) for a demand no BS can carry: more RRBs than any BS has
/// (Scenario::validate keeps every BS's count below it).
inline constexpr std::uint32_t kUnservableRrbs = std::numeric_limits<std::uint32_t>::max();

/// Eq. 3: RRBs needed to carry `demand_bps` at per-RRB rate `rrb_rate`,
/// saturating at kUnservableRrbs. Requires demand_bps > 0 and rrb_rate > 0.
std::uint32_t rrbs_needed(double demand_bps, double rrb_rate);

}  // namespace dmra
