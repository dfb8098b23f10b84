// Compact fault-scenario builder for experiments.
//
// FaultPlan (net/fault_plan.hpp) is the precise, per-BS schedule the
// runtime consumes; writing one by hand for every sweep cell is noise.
// This module provides the experiment-facing layer:
//  * FaultSpec        — a flat knob set matching the --faults CLI flag,
//  * parse_fault_spec — "loss=0.1,crashes=2,seed=7" → FaultSpec,
//  * make_fault_plan  — FaultSpec × deployment size → concrete FaultPlan
//                       (seeded choice of which BSs crash/degrade),
//  * FaultyDmraAllocator — an Allocator running decentralized DMRA under
//                       the spec, so any existing bench roster can swap
//                       it in without learning the fault API.
//
// docs/RESILIENCE.md documents the spec grammar and semantics.
#pragma once

#include <optional>
#include <string>

#include "core/decentralized.hpp"
#include "mec/allocator.hpp"
#include "net/fault_plan.hpp"

namespace dmra {

/// Flat description of a fault scenario, shaped for a CLI flag: counts
/// and rates instead of per-BS schedules. Which BSs fail is drawn from a
/// seeded "fault-plan" RNG stream in make_fault_plan, so the same spec +
/// seed always breaks the same cells.
struct FaultSpec {
  double loss = 0.0;                  ///< per-message drop probability, [0, 1)
  double duplicate = 0.0;             ///< per-message duplication probability
  double delay = 0.0;                 ///< per-message delay probability
  std::size_t max_delay_rounds = 2;   ///< delay draw upper bound (inclusive)
  std::size_t crashes = 0;            ///< how many BSs crash
  std::size_t crash_round = 1;        ///< first crash fires here; rest staggered +1
  std::size_t down_rounds = 0;        ///< outage length; 0 = never recovers
  std::size_t degradations = 0;       ///< how many BSs degrade
  double degrade_factor = 0.5;        ///< CRU and RRB scale factor, [0, 1]
  std::size_t degrade_round = 1;      ///< all degradations fire here
  std::uint64_t seed = 0;             ///< RNG seed (bus streams + BS choice)

  /// True iff the spec injects anything at all.
  bool any() const {
    return loss > 0.0 || duplicate > 0.0 || delay > 0.0 || crashes > 0 ||
           degradations > 0;
  }
};

/// Parse a comma-separated key=value spec, e.g.
///   "loss=0.1,dup=0.02,delay=0.05,delay-max=3,crashes=2,crash-round=4,
///    down-rounds=8,degrade=1,degrade-factor=0.5,degrade-round=6,seed=7"
/// Keys: loss, dup, delay, delay-max, crashes, crash-round, down-rounds,
/// degrade, degrade-factor, degrade-round, seed. Unknown keys, malformed
/// values and values out of range (loss, dup and delay in [0, 1),
/// degrade-factor in [0, 1], no negative count, delay-max >= 1 when
/// delay > 0) throw std::invalid_argument with a message naming the
/// offending token. The empty string parses to a no-fault spec.
FaultSpec parse_fault_spec(const std::string& text);

/// Instantiate the spec against a deployment of `num_bss` base stations:
/// a seeded shuffle picks which BSs crash (staggered one round apart,
/// starting at crash_round) and which degrade (all at degrade_round, both
/// factors = degrade_factor). Counts are clamped to the BSs available;
/// crash and degradation targets never overlap. Deterministic per
/// (spec, num_bss).
FaultPlan make_fault_plan(const FaultSpec& spec, std::size_t num_bss);

/// Decentralized DMRA run under a FaultSpec, packaged as an Allocator so
/// bench rosters can swap it in for DmraAllocator. Each allocate() call
/// instantiates the plan for that scenario's deployment and runs the
/// hardened protocol. Stateless and const, so one instance is safe to
/// share across parallel replication workers; callers that need the
/// fault/recovery accounting should call run() instead.
class FaultyDmraAllocator final : public Allocator {
 public:
  explicit FaultyDmraAllocator(FaultSpec spec, DmraConfig config = {})
      : spec_(spec), config_(config) {}

  std::string name() const override { return "DMRA+faults"; }
  Allocation allocate(const Scenario& scenario) const override {
    return run(scenario).dmra.allocation;
  }

  /// The full protocol outcome (bus traffic + recovery stats).
  DecentralizedResult run(const Scenario& scenario) const;

 private:
  FaultSpec spec_;
  DmraConfig config_;
};

}  // namespace dmra
