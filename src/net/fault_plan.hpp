// Deterministic fault plans for the decentralized runtime.
//
// A FaultPlan is a *schedule*, not a random process: given the same plan
// and the same seed, every run injects exactly the same faults at exactly
// the same protocol rounds. Randomness exists only inside the message-bus
// link model (per-message drop/duplicate/delay draws), and those draws
// come from named child RNG streams ("bus-loss", "bus-faults") so arming
// one fault class never perturbs another's stream.
//
// Three fault classes (docs/RESILIENCE.md):
//  * link faults      — per-message loss, duplication, and bounded delay,
//                       applied by MessageBus::set_faults;
//  * BS outages       — a BS crashes at a scheduled round (volatile state
//                       lost, inbox discarded, broadcasts stop) and
//                       optionally recovers cold at a later round;
//  * capacity faults  — a BS's *remaining* CRUs/RRBs are scaled down at a
//                       scheduled round (degraded hardware keeps serving
//                       what it already admitted, but admits less).
//
// An empty plan — or one whose knobs are all at their neutral values —
// must be indistinguishable from no plan at all: run_decentralized_dmra
// only enters its fault-handling paths when FaultPlan::any() is true, and
// a golden test asserts byte-identical output for the zero-fault case.
// Any other plan arms the unreliable-network protocol (re-acks,
// rebroadcasts); only outages also arm crash recovery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "mec/ids.hpp"

namespace dmra {

/// Per-message link impairments, applied independently to every pending
/// message at delivery time. All probabilities are per message, in [0, 1).
struct LinkFaults {
  /// Message is silently lost. Draws come from the "bus-loss" stream, so
  /// arming duplication or delay never changes which messages drop.
  double drop_probability = 0.0;
  /// A surviving message is delivered now AND a copy arrives one round
  /// later (stale retransmission). The copy is delivered unconditionally.
  double duplicate_probability = 0.0;
  /// A surviving message is held back uniformly 1..max_delay_rounds rounds
  /// instead of being delivered now. Delivery order among delayed messages
  /// stays send-sequence order.
  double delay_probability = 0.0;
  /// Upper bound (inclusive) on the delay draw. Must be >= 1 when
  /// delay_probability > 0.
  std::uint64_t max_delay_rounds = 2;

  /// True iff any impairment is armed.
  bool any() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 ||
           delay_probability > 0.0;
  }
};

/// Sentinel for BsOutage::recover_round: the BS never comes back.
inline constexpr std::size_t kNeverRecovers = std::numeric_limits<std::size_t>::max();

/// A scheduled BS crash. At the start of protocol round `crash_round` the
/// BS loses all volatile state (its admission ledger and pending inbox);
/// the runtime voids its commitments, orphaning the UEs it served. At
/// `recover_round` (if any) it restarts cold with full nominal capacity.
struct BsOutage {
  BsId bs;
  std::size_t crash_round = 0;
  std::size_t recover_round = kNeverRecovers;  ///< must be > crash_round
};

/// A scheduled capacity degradation: at the start of round `round` the
/// BS's *remaining* CRUs and RRBs are scaled by the given factors (floor).
/// Already-admitted UEs keep their service; only future admissions shrink.
struct CapacityDegradation {
  BsId bs;
  std::size_t round = 0;
  double cru_factor = 1.0;  ///< in [0, 1]
  double rrb_factor = 1.0;  ///< in [0, 1]
};

/// A complete, seeded fault schedule for one decentralized run. Attach it
/// via NetworkConditions::faults; sim/faults.hpp builds plans from a
/// compact CLI spec (the --faults flag of every bench).
struct FaultPlan {
  LinkFaults link;
  std::vector<BsOutage> outages;
  std::vector<CapacityDegradation> degradations;

  /// True iff the plan injects anything at all. A plan with any() == false
  /// attached to a run is contractually a no-op (golden-tested).
  bool any() const {
    return link.any() || !outages.empty() || !degradations.empty();
  }

  /// DMRA_REQUIREs the plan is well-formed against a deployment of
  /// `num_bss` base stations: probabilities in range, BS ids in range, at
  /// most one outage per BS, recover_round > crash_round, factors in [0,1].
  void validate(std::size_t num_bss) const;

  /// Largest scheduled round in the plan (0 when only link faults are
  /// armed) — the runtime extends its round limit past this horizon so a
  /// late crash or recovery is never silently skipped.
  std::size_t schedule_horizon() const;
};

}  // namespace dmra
