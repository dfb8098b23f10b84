#include "mec/pricing.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace dmra {

double cru_price(const PricingConfig& cfg, double distance_m, bool same_sp) {
  DMRA_REQUIRE(distance_m >= 0.0);
  DMRA_REQUIRE(cfg.b > 0.0);
  DMRA_REQUIRE_MSG(cfg.iota > 1.0, "Eq. 10 requires iota > 1");
  const double d = std::max(distance_m, cfg.min_distance_m);
  const double transmission = cfg.transmission == TransmissionPricing::kLinear
                                  ? cfg.sigma * d * cfg.b
                                  : std::pow(d, cfg.sigma) * cfg.b;
  const double computing = same_sp ? cfg.b : cfg.iota * cfg.b;
  return computing + transmission;
}

double cru_margin(const PricingConfig& cfg, double distance_m, bool same_sp) {
  return cfg.m_k - cru_price(cfg, distance_m, same_sp) - cfg.m_k_o;
}

bool is_profitable(const PricingConfig& cfg, double distance_m, bool same_sp) {
  return cru_margin(cfg, distance_m, same_sp) > 0.0;
}

bool pricing_valid_for(const PricingConfig& cfg, double max_distance_m, double multiplier) {
  // cru_price is strictly increasing in distance and cross-SP dominates
  // same-SP, so the worst case is (max_distance_m, different SP).
  return cfg.m_k > multiplier * cru_price(cfg, max_distance_m, /*same_sp=*/false) + cfg.m_k_o;
}

}  // namespace dmra
