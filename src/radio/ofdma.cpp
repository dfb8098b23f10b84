#include "radio/ofdma.hpp"

#include <cmath>

#include "util/require.hpp"

namespace dmra {

std::uint32_t OfdmaConfig::num_rrbs() const {
  DMRA_REQUIRE(uplink_bandwidth_hz > 0 && rrb_bandwidth_hz > 0);
  return static_cast<std::uint32_t>(uplink_bandwidth_hz / rrb_bandwidth_hz);
}

double rrb_rate_bps(double rrb_bandwidth_hz, double sinr_linear) {
  DMRA_REQUIRE(rrb_bandwidth_hz > 0.0);
  DMRA_REQUIRE(sinr_linear >= 0.0);
  return rrb_bandwidth_hz * std::log2(1.0 + sinr_linear);
}

std::uint32_t rrbs_needed(double demand_bps, double rrb_rate) {
  DMRA_REQUIRE(demand_bps > 0.0);
  DMRA_REQUIRE(rrb_rate > 0.0);
  const double n = std::ceil(demand_bps / rrb_rate);
  return n < kUnservableRrbs ? static_cast<std::uint32_t>(n) : kUnservableRrbs;
}

}  // namespace dmra
