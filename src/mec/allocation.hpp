// The output of an allocator: every UE is either associated with exactly
// one BS (a_{u,i} = 1) or forwarded to the remote cloud.
//
// Profit accounting (Eq. 5–8 summed over SPs) and the forwarded-traffic
// metric of Fig. 7 live here; constraint validation against a Scenario is
// in sim/feasibility.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mec/ids.hpp"
#include "mec/scenario.hpp"

namespace dmra {

/// UE → BS association. Internally -1 encodes "remote cloud".
class Allocation {
 public:
  /// All UEs start at the cloud (unassociated).
  explicit Allocation(std::size_t num_ues);

  std::size_t num_ues() const { return assignment_.size(); }

  /// BS serving u, or nullopt if u is forwarded to the cloud.
  std::optional<BsId> bs_of(UeId u) const;

  bool is_cloud(UeId u) const { return !bs_of(u).has_value(); }

  /// Associate u with i (overwrites a previous association).
  void assign(UeId u, BsId i);

  /// Send u to the cloud.
  void assign_cloud(UeId u);

  std::size_t num_served() const;         ///< UEs served at the MEC layer
  std::size_t num_cloud() const;          ///< UEs forwarded to the cloud

  friend bool operator==(const Allocation&, const Allocation&) = default;

 private:
  std::vector<std::int64_t> assignment_;  // BsId value or -1 for cloud
};

/// Per-SP and total profit of an allocation (Eq. 5 summed over k ∈ ς).
/// Cloud-forwarded UEs contribute zero MEC-layer profit.
struct ProfitBreakdown {
  std::vector<double> per_sp;   ///< W_k, indexed by SpId::idx()
  double total = 0.0;           ///< Σ_k W_k — the TPM objective (Eq. 11)
  double revenue = 0.0;         ///< Σ_k W_k^r
  double bs_payments = 0.0;     ///< Σ_k W_k^B
  double other_costs = 0.0;     ///< Σ_k W_k^S
};

/// Evaluate Eq. 5–8 for `alloc` on `scenario`.
ProfitBreakdown compute_profit(const Scenario& scenario, const Allocation& alloc);

/// Total SP profit (Eq. 11) — shorthand for compute_profit(...).total.
double total_profit(const Scenario& scenario, const Allocation& alloc);

/// total_profit(scenario, alloc) bit for bit, in O(|ues|), when `ues`
/// (strictly ascending) holds every UE `alloc` serves: compute_profit's
/// per-SP sums in the same order, over `ues` only, each served pair priced
/// from its candidate slot. For a caller that already lists the live UEs
/// of a large slot universe (sim/churn's periodic re-solve).
double total_profit_over(const Scenario& scenario, const Allocation& alloc,
                         std::span<const UeId> ues);

/// Fig. 7's metric: Σ w_u over cloud-forwarded UEs, in bit/s.
double forwarded_traffic_bps(const Scenario& scenario, const Allocation& alloc);

/// Fraction of served UEs whose serving BS belongs to their own SP.
/// (Diagnostic for the ι effect; 0 if nothing is served.)
double same_sp_ratio(const Scenario& scenario, const Allocation& alloc);

}  // namespace dmra
