// Shared helpers for the test suite: hand-built miniature scenarios with
// fully-known geometry so expected values can be computed by hand, and
// the serving probe several suites replay.
#pragma once

#include <cstdint>
#include <vector>

#include "mec/scenario.hpp"
#include "sim/churn.hpp"

namespace dmra::test {

/// Options for the miniature scenario builder.
struct MiniOpts {
  std::size_t num_services = 2;
  double coverage_radius_m = 500.0;
  double iota = 2.0;
};

/// A builder for small hand-crafted scenarios. BSs/UEs are appended with
/// explicit positions and demands; everything else gets simple defaults.
class MiniScenario {
 public:
  explicit MiniScenario(MiniOpts opts = {}) : opts_(opts) {
    data_.num_services = opts.num_services;
    data_.coverage_radius_m = opts.coverage_radius_m;
    data_.pricing.iota = opts.iota;
  }

  /// Add an SP; returns its id.
  SpId add_sp() {
    const SpId id{static_cast<std::uint32_t>(data_.sps.size())};
    data_.sps.push_back({id, "SP-" + std::to_string(id.value)});
    return id;
  }

  /// Add a BS owned by `sp` at `pos` hosting every service with capacity
  /// `cru_per_service` and `rrbs` radio blocks.
  BsId add_bs(SpId sp, Point pos, std::uint32_t cru_per_service = 100,
              std::uint32_t rrbs = 55) {
    BaseStation b;
    b.id = BsId{static_cast<std::uint32_t>(data_.bss.size())};
    b.sp = sp;
    b.position = pos;
    b.cru_capacity.assign(data_.num_services, cru_per_service);
    b.num_rrbs = rrbs;
    data_.bss.push_back(std::move(b));
    return data_.bss.back().id;
  }

  /// Add a BS hosting only the given services (capacity per hosted service).
  BsId add_bs_hosting(SpId sp, Point pos, const std::vector<ServiceId>& services,
                      std::uint32_t cru_per_service = 100, std::uint32_t rrbs = 55) {
    const BsId id = add_bs(sp, pos, 0, rrbs);
    for (ServiceId j : services) data_.bss[id.idx()].cru_capacity[j.idx()] = cru_per_service;
    return id;
  }

  /// Add a UE subscribed to `sp` at `pos` requesting `service`.
  UeId add_ue(SpId sp, Point pos, ServiceId service, std::uint32_t cru_demand = 4,
              double rate_bps = 4e6) {
    UserEquipment e;
    e.id = UeId{static_cast<std::uint32_t>(data_.ues.size())};
    e.sp = sp;
    e.position = pos;
    e.service = service;
    e.cru_demand = cru_demand;
    e.rate_demand_bps = rate_bps;
    data_.ues.push_back(e);
    return data_.ues.back().id;
  }

  /// Mutable access for tests that want unusual configurations.
  ScenarioData& data() { return data_; }

  /// Finalize. Call once.
  Scenario build() { return Scenario(std::move(data_)); }

 private:
  MiniOpts opts_;
  ScenarioData data_;
};

/// The simplest useful instance: 2 SPs, 2 BSs (one each, 200 m apart),
/// services {0, 1} everywhere, and `n_ues` UEs alternating SPs placed
/// between the BSs.
inline Scenario two_bs_scenario(std::size_t n_ues = 4) {
  MiniScenario ms;
  const SpId sp0 = ms.add_sp();
  const SpId sp1 = ms.add_sp();
  ms.add_bs(sp0, {0.0, 0.0});
  ms.add_bs(sp1, {200.0, 0.0});
  for (std::size_t i = 0; i < n_ues; ++i) {
    const SpId sp = (i % 2 == 0) ? sp0 : sp1;
    const ServiceId svc{static_cast<std::uint32_t>(i % 2)};
    ms.add_ue(sp, {50.0 + 25.0 * static_cast<double>(i), 0.0}, svc);
  }
  return ms.build();
}

/// The serving probe GoldenRuntime.ServingByteIdenticalAcrossSeeds pins
/// (seeds 1-10): run_churn on a 10-BS deployment holding about 1.6x the
/// UEs it can serve (a third of the actives wait at the cloud), so the
/// readmit sweep has dwellers to place, with waypoint moves, periodic
/// re-solves and one BS crash that orphans served UEs mid-stream. Kept
/// small: the sanitizer CI job runs it with DMRA_AUDIT=1, which audits
/// the whole ledger after every event.
inline ChurnConfig serving_probe_config(std::uint64_t seed) {
  ChurnConfig cfg;
  cfg.deployment.bss_per_sp = 2;
  cfg.arrival_rate_hz = 6.0;
  cfg.mean_dwell_s = 100.0;
  cfg.prefill = cfg.steady_state_target();  // counts toward the horizon
  cfg.mean_move_interval_s = 30.0;
  cfg.horizon_events = cfg.prefill + 900;
  cfg.readmit_every = 16;
  cfg.resolve_every = 300;
  cfg.seed = seed;
  FaultSpec faults;
  faults.crashes = 1;
  faults.crash_round = cfg.prefill + 300;  // event index on the serving timeline
  faults.down_rounds = 200;
  faults.seed = seed;
  cfg.faults = faults;
  return cfg;
}

}  // namespace dmra::test
