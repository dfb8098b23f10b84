#include "core/decentralized.hpp"

#include <algorithm>
#include <span>
#include <variant>

#include "core/runtime_detail.hpp"
#include "mec/audit.hpp"
#include "mec/resources.hpp"
#include "net/bus.hpp"
#include "obs/flight.hpp"
#include "obs/recorder.hpp"
#include "util/alloc_hook.hpp"
#include "util/require.hpp"

namespace dmra {

namespace {

// ---- Message types -------------------------------------------------------

/// UE → its SP: "propose on my behalf to my candidate `slot`" — a
/// row-local index into Scenario::candidates(ue), which names the BS and,
/// through candidate_rrbs(ue), n(u,i). Carrying the slot instead of the BS
/// keeps the widest payload at three words.
struct MsgOffloadRequest {
  UeId ue;
  std::uint32_t slot;
  std::uint32_t f_u;
};

/// SP → BS: relayed proposal, the (ue, f_u, n(u,i)) the BS selects on.
using MsgPropose = ProposalInfo;

/// BS → SP → UE: outcome of a proposal.
struct MsgDecision {
  UeId ue;
  BsId bs;
  bool accept;
};

// Resource levels travel on the bus's per-BS broadcast channels, not in
// envelopes: a publication is the BS's remaining CRUs per service, then
// its remaining RRBs (num_services + 1 words).
using Payload = std::variant<MsgOffloadRequest, MsgPropose, MsgDecision>;
using Bus = MessageBus<Payload>;

/// Stable sort of proposals by UeId into caller-owned scratch — the
/// stable-sorted permutation is unique, so this is element-for-element
/// identical to std::stable_sort without its per-call temporary-buffer
/// heap allocation (which would break the faulted round loop's
/// zero-allocation budget; tests/core/alloc_test.cpp asserts it).
void stable_sort_by_ue(std::vector<ProposalInfo>& v, std::vector<ProposalInfo>& scratch) {
  const std::size_t n = v.size();
  if (scratch.size() < n) scratch.resize(n);  // grow-only; reserved by caller
  for (std::size_t width = 1; width < n; width *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * width) {
      const std::size_t mid = std::min(lo + width, n);
      const std::size_t hi = std::min(lo + 2 * width, n);
      std::size_t i = lo, j = mid, k = lo;
      // Left run wins ties: that is exactly the stability guarantee.
      while (i < mid && j < hi) scratch[k++] = v[j].ue < v[i].ue ? v[j++] : v[i++];
      while (i < mid) scratch[k++] = v[i++];
      while (j < hi) scratch[k++] = v[j++];
    }
    std::copy(scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(n),
              v.begin());
  }
}

// ---- Agents ---------------------------------------------------------------

// A UE's view of its candidates' remaining resources lives in one flat
// array of HeldLevels the entry point owns (one entry per candidate slot,
// indexed by Scenario::candidate_offset: the CRUs of the UE's own service,
// the RRBs, and the stamp they came from), shared by concurrent runs over
// disjoint scopes. It is prefilled with the BSs' static capacities at
// stamp 0 — the optimistic prior a UE is allowed to hold for a candidate
// it has not heard from (possible only on a lossy network; the reliable
// bootstrap covers everyone), and the safe one: a pessimistic prior would
// make propose_soa erase a live candidate permanently. A channel read
// overwrites the entry only with a newer publication.

struct UeAgent {
  UeId ue;
  AgentId address;
  AgentId sp_address;
  bool matched = false;
  bool at_cloud = false;

  // Crash-recovery bookkeeping, inert unless the plan schedules outages.
  BsId last_target{};            ///< BS of the most recent proposal
  bool awaiting = false;         ///< proposal outstanding, no decision heard
  std::uint32_t unanswered = 0;  ///< consecutive silent round trips to last_target
  BsId serving_bs{};             ///< BS whose accept matched us (crash suspicion)
  std::uint32_t serving_slot = 0;  ///< serving_bs's candidate slot: the heartbeat channel
  bool has_serving = false;
  std::uint32_t serving_silence = 0;  ///< rounds without hearing serving_bs
  bool heard_serving = false;         ///< scratch: heard from serving_bs this round
  bool needs_repair = false;  ///< orphaned by a BS crash, not yet re-placed
};

struct BsAgent {
  BsId bs;
  AgentId address;
  BsLocalResources resources;
  /// Member UEs (by scope position) this BS has already admitted — on an
  /// unreliable network an accept can be lost and the UE re-proposes;
  /// re-ack without committing twice. Empty on a reliable bus, where every
  /// accept arrives and nobody re-proposes to the BS that admitted it.
  std::vector<bool> admitted;
  /// Cleared by a scheduled FaultPlan crash: a dead BS swallows its inbox,
  /// sends nothing, and its resource state is meaningless until recovery.
  bool alive = true;
};

/// Global id → scope position; kNotLocal for agents outside the scope.
constexpr std::uint32_t kNotLocal = 0xFFFFFFFFu;

/// Crash recovery bounds (armed only by a plan with BS outages). A UE
/// re-proposes to the same silent BS at most kMaxReproposals consecutive
/// times before it presumes the BS dead and erases it from its candidate
/// list. A matched UE that hears nothing from its serving BS for more
/// than kSuspectAfter consecutive rounds suspects a crash and re-enters
/// the matching: live BSs publish every round and the UE reads its
/// serving BS's channel every round, so silence is a strong crash signal,
/// and a false suspicion is healed by the BS's re-ack.
constexpr std::uint32_t kMaxReproposals = 3;
constexpr std::uint32_t kSuspectAfter = 3;

using runtime_detail::HeldLevels;
using runtime_detail::ProtocolRun;
using runtime_detail::ProtocolScope;

/// The engine body, instantiated twice from one source. run_protocol
/// picks kUnreliable from its NetworkConditions: false (no fault plan, or
/// one that injects nothing) folds every fault branch out of the round
/// loop, which keeps shards as fast as a fault-free copy of the loop.
/// true arms what any unreliable network needs — re-acks, every-round
/// publications, proposal dedupe, relaxed audits — and the plan's outages
/// alone arm crash recovery (`crashes` below).
template <bool kUnreliable>
ProtocolRun run_scope(const Scenario& scenario, const DmraConfig& config,
                      const NetworkConditions& net, const ProtocolScope& scope,
                      std::vector<HeldLevels>& views, LiveCandidates& b_u) {
  const FaultPlan* const plan = net.faults;
  if (kUnreliable) plan->validate(scenario.num_bss());
  const bool crashes = kUnreliable && !plan->outages.empty();
  const std::size_t max_delay =
      kUnreliable && plan->link.delay_probability > 0.0
          ? static_cast<std::size_t>(plan->link.max_delay_rounds)
          : 0;
  // Under link faults a UE's proposal can reach a BS in several
  // generations at once (the fresh send, a duplicate copy, and delayed
  // originals from up to max_delay_rounds earlier rounds); every
  // proposal-sized pool is reserved with this headroom so faulted rounds
  // stay allocation-free. Without faults the bound is one per UE.
  const bool link_faults = kUnreliable && plan->link.any();
  const std::size_t generations = link_faults ? 2 + max_delay : 1;

  Bus bus;
  if (link_faults) bus.set_faults(plan->link, net.seed);
  const std::size_t nu = scope.ues.size();
  const std::size_t nb = scope.bss.size();
  const std::size_t nk = scenario.num_sps();
  const std::size_t ns = scenario.num_services();
  // One channel per BS of the scenario, by global id (only members
  // publish); a publication is ns CRU words, then the RRB word.
  bus.open_channels(scenario.num_bss(), ns + 1);

  std::vector<UeAgent> ue_agents(nu);
  std::vector<AgentId> sp_address(nk);  // SP agents are stateless relays
  std::vector<BsAgent> bs_agents(nb);
  std::vector<std::uint32_t> ue_local(scenario.num_ues(), kNotLocal);
  std::vector<std::uint32_t> bs_local(scenario.num_bss(), kNotLocal);

  // Registration order (SPs, member UEs, member BSs, each ascending) fixes
  // the bus's (recipient, seq) delivery order, so a scope holding every
  // agent runs exactly the single-bus protocol.
  for (AgentId& sp : sp_address) sp = bus.register_agent();
  for (std::size_t li = 0; li < nu; ++li) {
    UeAgent& a = ue_agents[li];
    a.ue = scope.ues[li];
    DMRA_REQUIRE_MSG(li == 0 || scope.ues[li - 1] < a.ue, "scope UEs must be ascending");
    ue_local[a.ue.idx()] = static_cast<std::uint32_t>(li);
    a.address = bus.register_agent();
    a.sp_address = sp_address[scenario.ue(a.ue).sp.idx()];
    const auto cands = scenario.candidates(a.ue);
    const std::size_t off = scenario.candidate_offset(a.ue);
    const std::size_t svc = scenario.ue(a.ue).service.idx();
    for (std::size_t c = 0; c < cands.size(); ++c) {
      const BaseStation& bsc = scenario.bs(cands[c]);
      views[off + c] = {bsc.cru_capacity[svc], bsc.num_rrbs, 0};
    }
    if (b_u.empty(a.ue)) a.at_cloud = true;
  }
  for (std::size_t lb = 0; lb < nb; ++lb) {
    BsAgent& a = bs_agents[lb];
    a.bs = scope.bss[lb];
    DMRA_REQUIRE_MSG(lb == 0 || scope.bss[lb - 1] < a.bs, "scope BSs must be ascending");
    bs_local[a.bs.idx()] = static_cast<std::uint32_t>(lb);
    a.address = bus.register_agent();
    const BaseStation& b = scenario.bs(a.bs);
    a.resources.crus = b.cru_capacity;
    a.resources.rrbs = b.num_rrbs;
    if (kUnreliable) a.admitted.assign(nu, false);
  }
  for (const UeAgent& u : ue_agents)  // proposals are routed to member BSs only
    for (const BsId i : scenario.candidates(u.ue))
      DMRA_REQUIRE_MSG(bs_local[i.idx()] != kNotLocal, "scope UE with a candidate outside the scope");

  // Warm the bus pools to the per-deliver high-water mark: the BS phase and
  // the SP relays carry at most one decision per proposer and one relayed
  // request, times the fault generation headroom, so after this the
  // steady-state round loop never grows a bus buffer. reserve() runs after
  // set_faults() above, so it also sizes the delay parking queue from the
  // armed fault rates.
  bus.reserve(2 * nu * generations);

  ProtocolRun run;
  DecentralizedResult& result = run.result;
  result.dmra.allocation = Allocation(scenario.num_ues());
  MessageMix mix;  // a local, so the per-send counts stay in registers

  // Tracing: a single pointer test when disabled; everything else hides
  // behind it. traced_profit mirrors the BSs' cumulative admissions.
  obs::TraceRecorder* const rec = obs::recorder();
  double traced_profit = 0.0;
  if (rec != nullptr) {
    rec->take_tally();  // drop any tally left by a previous producer
    rec->set_round(0);
    obs::TraceEvent e;
    e.kind = obs::EventKind::kPhase;
    e.label = scope.bootstrap_label;
    e.value = nb;
    rec->record(e);
  }
  // Flight recorder (obs/flight.hpp): always-on post-mortem channel.
  // Unlike the trace recorder it sees only the low-rate narrative —
  // faults, repairs, phases, termination — never per-proposal events, so
  // its steady-state cost is a handful of ring stores per round.
  obs::FlightRecorder* const fr = obs::flight();
  if (fr != nullptr) {
    fr->reserve_agents(scenario.num_ues(), scenario.num_bss());  // events carry global ids
    fr->set_round(0);
    obs::TraceEvent e;
    e.kind = obs::EventKind::kPhase;
    e.label = scope.bootstrap_label;
    e.value = nb;
    fr->record(e);
  }
  const auto record_fault = [&](obs::EventKind kind, std::string_view label,
                                std::uint32_t ue, std::uint32_t bs, std::uint64_t value) {
    if (rec == nullptr && fr == nullptr) return;
    obs::TraceEvent e;
    e.kind = kind;
    e.label = label;
    e.ue = ue;
    e.bs = bs;
    e.value = value;
    if (rec != nullptr) rec->record(e);
    if (fr != nullptr) fr->record(e);
  };

  // A BS posts its current levels on its channel: one send, however many
  // UEs read it.
  const auto publish = [&](const BsAgent& b) {
    const std::span<std::uint32_t> words = bus.publish(b.bs.idx());
    std::copy(b.resources.crus.begin(), b.resources.crus.end(), words.begin());
    words[ns] = b.resources.rrbs;
    ++mix.publications;
    if (rec != nullptr) {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kBroadcast;
      e.bs = b.bs.value;
      e.value = bus.stamp(b.bs.idx());
      rec->record(e);
    }
  };
  // A UE's read of candidate slot `slot`'s channel: copies the levels the
  // UE needs when the read brings a newer publication.
  const auto read_levels = [&](BsId bs, std::size_t slot, std::size_t svc) {
    HeldLevels& held = views[slot];
    const std::uint32_t* words = bus.read(bs.idx(), held.stamp);
    if (words == nullptr) return false;
    held.crus = words[svc];
    held.rrbs = words[ns];
    return true;
  };

  // ---- Bootstrap: every BS publishes its initial resource levels so UEs
  // have a complete view of their candidates before the first proposal.
  for (const BsAgent& b : bs_agents) publish(b);
  bus.deliver();

  // On an unreliable network a round can lose every proposal it carried,
  // so the |U|+1 bound no longer holds exactly; give retries headroom, and
  // outlive the plan's schedule (a crash at round r must fire even if
  // matching would have converged at r-1) plus headroom for the recovery
  // machinery to settle.
  const std::size_t round_limit =
      kUnreliable ? 2 * nu + 64 + plan->schedule_horizon() : nu + 1;

  // Under faults a quiet round (no proposals) is not proof of convergence:
  // a delayed proposal may still be on its two hops to a BS, a scheduled
  // fault may be about to orphan someone, or a suspicion countdown may be
  // about to release a silently-orphaned UE. Require enough consecutive
  // quiet rounds to outlast the delay window and every countdown, and a
  // spent schedule. A message still parked once no UE proposes cannot
  // create new work, so the bus need not be empty.
  const std::size_t quiet_grace =
      std::max<std::size_t>(crashes ? kSuspectAfter + 2 : 0, max_delay > 0 ? max_delay + 1 : 0);
  const auto schedule_ahead = [&](std::size_t round) {
    if (!kUnreliable) return false;
    for (const BsOutage& o : plan->outages) {
      if (o.crash_round > round) return true;
      if (o.recover_round != kNeverRecovers && o.recover_round > round) return true;
    }
    for (const CapacityDegradation& d : plan->degradations)
      if (d.round > round) return true;
    return false;
  };
  std::size_t quiet_rounds = 0;

  // BS-phase scratch, hoisted out of the round loop and reserved to the
  // worst case (one proposal per UE per generation — see `generations`
  // above), so per round the cost is a clear() that keeps capacity, not a
  // fresh heap allocation per BS.
  std::vector<ProposalInfo> fresh;
  std::vector<UeId> reacks;
  std::vector<ProposalInfo> sort_scratch;
  fresh.reserve(nu * generations);
  reacks.reserve(nu * generations);
  sort_scratch.reserve(nu * generations);
  BsSelectWorkspace ws;
  ws.reserve(scenario.num_services(), nu * generations);
  const std::vector<ProposalInfo> empty_accepts;
  const auto by_ue = [](const ProposalInfo& x, const ProposalInfo& y) { return x.ue < y.ue; };

  // Heap-allocation accounting: one count() sample per round when a probe
  // is installed (perf_report, the zero-allocation test), one dead branch
  // otherwise. The first rounds warm the lazily-grown pools (trace sinks,
  // libstdc++ internals); rounds past the settle window are asserted
  // allocation-free.
  constexpr std::uint64_t kAllocSettleRounds = 2;
  const bool measuring = alloc_hook::active();
  result.alloc.measured = measuring;
  result.alloc.settle_rounds = kAllocSettleRounds;
  std::uint64_t alloc_mark = measuring ? alloc_hook::count() : 0;
  const auto sample_round = [&](std::size_t round) {
    if (!measuring) return;
    const std::uint64_t now = alloc_hook::count();
    const std::uint64_t delta = now - alloc_mark;
    alloc_mark = now;
    result.alloc.total_allocations += delta;
    if (round >= kAllocSettleRounds) result.alloc.steady_state_allocations += delta;
  };

  for (std::size_t round = 0; round < round_limit; ++round) {
    const std::uint64_t msgs_before = bus.stats().messages_sent;
    if (rec != nullptr) rec->set_round(round);
    if (fr != nullptr) fr->set_round(round);

    // ---- Fault schedule: apply this round's crashes / recoveries /
    // degradations to the member BSs before anyone acts. The injector is
    // an out-of-band scheduler, not an agent: it may touch BS state and
    // the authoritative allocation, but UEs only ever learn of a fault
    // through the protocol (silence, lost decisions) — that is what is
    // under test.
    if (kUnreliable) {
      for (const BsOutage& o : plan->outages) {
        const std::uint32_t lb = bs_local[o.bs.idx()];
        if (lb == kNotLocal) continue;
        BsAgent& ob = bs_agents[lb];
        if (o.crash_round == round && ob.alive) {
          ob.alive = false;
          std::fill(ob.admitted.begin(), ob.admitted.end(), false);
          ++result.recovery.bs_crashes;
          record_fault(obs::EventKind::kFault, "bs-crash", obs::kNoId, o.bs.value, round);
          if (fr != nullptr) fr->trigger("bs-crash", round, o.bs.value);
          for (UeAgent& a : ue_agents) {
            const auto serving = result.dmra.allocation.bs_of(a.ue);
            if (!serving || *serving != o.bs) continue;
            if (rec != nullptr) traced_profit -= scenario.pair_profit(a.ue, o.bs);
            result.dmra.allocation.assign_cloud(a.ue);
            a.needs_repair = true;
            ++result.recovery.orphaned_ues;
          }
        }
        if (o.recover_round == round && !ob.alive) {
          ob.alive = true;
          const BaseStation& b = scenario.bs(o.bs);
          ob.resources.crus = b.cru_capacity;  // reboot with nominal capacity
          ob.resources.rrbs = b.num_rrbs;
          ++result.recovery.bs_recoveries;
          record_fault(obs::EventKind::kRepair, "bs-recover", obs::kNoId, o.bs.value,
                       round);
        }
      }
      for (const CapacityDegradation& d : plan->degradations) {
        const std::uint32_t lb = bs_local[d.bs.idx()];
        if (lb == kNotLocal || d.round != round || !bs_agents[lb].alive) continue;
        BsLocalResources& r = bs_agents[lb].resources;
        for (std::uint32_t& c : r.crus)
          c = static_cast<std::uint32_t>(static_cast<double>(c) * d.cru_factor);
        r.rrbs = static_cast<std::uint32_t>(static_cast<double>(r.rrbs) * d.rrb_factor);
        ++result.recovery.capacity_degradations;
        record_fault(obs::EventKind::kFault, "bs-degrade", obs::kNoId, d.bs.value, round);
      }
    }

    // ---- UE phase: ingest decisions, read the channels the UE needs,
    // then propose.
    std::size_t sent_this_round = 0;
    std::uint64_t receptions_this_round = 0;
    // dmra::hotpath begin(ue-propose)
    for (UeAgent& a : ue_agents) {
      a.heard_serving = false;
      const std::span<const BsId> cands = scenario.candidates(a.ue);
      const std::size_t off = scenario.candidate_offset(a.ue);
      const std::size_t svc = scenario.ue(a.ue).service.idx();
      for (auto& env : bus.take_inbox(a.address)) {
        const auto& dec = std::get<MsgDecision>(env.payload);
        if (crashes) {
          if (a.awaiting && dec.bs == a.last_target) {
            a.awaiting = false;
            a.unanswered = 0;
          }
          if (a.has_serving && dec.bs == a.serving_bs) a.heard_serving = true;
        }
        if (dec.accept) {
          a.matched = true;
          if (crashes) {
            a.serving_bs = dec.bs;
            a.serving_slot = static_cast<std::uint32_t>(
                std::lower_bound(cands.begin(), cands.end(), dec.bs) - cands.begin());
            a.has_serving = true;
            a.serving_silence = 0;
            a.heard_serving = true;
          }
        }
      }
      // Crash suspicion: under faults every live BS publishes every round
      // and a matched UE reads its serving BS's channel (the heartbeat), so
      // sustained silence means the BS is down. A false alarm (reads lost
      // several rounds in a row) only costs quality: the UE re-proposes and
      // the live BS re-acks.
      if (crashes && a.has_serving) {
        if (read_levels(a.serving_bs, off + a.serving_slot, svc)) {
          ++receptions_this_round;
          a.heard_serving = true;
        }
        if (a.heard_serving) {
          a.serving_silence = 0;
        } else if (++a.serving_silence > kSuspectAfter) {
          a.matched = false;
          a.has_serving = false;
          a.serving_silence = 0;
          ++result.recovery.suspected_serving_bs;
          record_fault(obs::EventKind::kRepair, "suspect-serving-bs", a.ue.value,
                       a.serving_bs.value, round);
        }
      }
      if (a.matched || a.at_cloud) continue;
      // Still seeking: read every candidate's channel (f_u counts them all).
      for (std::size_t c = 0; c < cands.size(); ++c)
        if (read_levels(cands[c], off + c, svc)) ++receptions_this_round;
      // Bounded re-propose: an unanswered proposal is retried, but only
      // kMaxReproposals times against the same silent BS before the UE
      // presumes it dead and moves down its list. This is what turns a
      // black-holed BS from a livelock into a mere preference downgrade.
      if (crashes && a.awaiting) {
        ++a.unanswered;
        ++result.recovery.reproposals;
        if (a.unanswered >= kMaxReproposals) {
          b_u.erase_bs(scenario, a.ue, a.last_target);
          a.awaiting = false;
          a.unanswered = 0;
          ++result.recovery.presumed_dead;
          record_fault(obs::EventKind::kRepair, "presume-bs-dead", a.ue.value,
                       a.last_target.value, round);
        }
      }
      const auto view = [&views](std::size_t slot, BsId) {
        return std::pair<std::uint32_t, std::uint32_t>{views[slot].crus, views[slot].rrbs};
      };
      const Proposal p = propose_soa(scenario, b_u, a.ue, config.rho, view);
      if (!p.bs) {
        a.at_cloud = true;
        continue;
      }
      bus.send(a.address, a.sp_address, MsgOffloadRequest{a.ue, p.slot, p.f_u});
      ++sent_this_round;
      if (crashes) {
        if (a.last_target != *p.bs) a.unanswered = 0;
        a.last_target = *p.bs;
        a.awaiting = true;
      }
      if (rec != nullptr) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::kProposal;
        e.ue = a.ue.value;
        e.bs = p.bs->value;
        e.service = scenario.ue(a.ue).service.value;
        e.value = p.f_u;
        rec->record(e);
      }
    }
    // dmra::hotpath end(ue-propose)
    mix.requests_ue_sp += sent_this_round;
    mix.receptions += receptions_this_round;
    bus.deliver();
    if (sent_this_round == 0) {
      if (++quiet_rounds > quiet_grace && !schedule_ahead(round)) {
        run.converged = true;
        sample_round(round);
        break;
      }
    } else {
      quiet_rounds = 0;
    }
    result.dmra.proposals_sent += sent_this_round;
    ++result.dmra.rounds;

    // ---- SP relay phase (up): forward offload requests to the BSs. On a
    // phase-aligned bus only requests can be here, but delay faults land
    // messages at ANY deliver(), so a relay must route whatever shows up:
    // a late decision goes down immediately instead of throwing.
    // dmra::hotpath begin(sp-relay-up)
    for (const AgentId sp : sp_address) {
      for (auto& env : bus.take_inbox(sp)) {
        if (const auto* req = std::get_if<MsgOffloadRequest>(&env.payload)) {
          // The UE's candidate slot names the BS and the n(u,i) it selects on.
          const BsId target = scenario.candidates(req->ue)[req->slot];
          bus.send(sp, bs_agents[bs_local[target.idx()]].address,
                   MsgPropose{req->ue, req->f_u, scenario.candidate_rrbs(req->ue)[req->slot]});
          ++mix.proposals_sp_bs;
        } else {
          const auto& dec = std::get<MsgDecision>(env.payload);
          bus.send(sp, ue_agents[ue_local[dec.ue.idx()]].address, dec);
          ++mix.decisions_sp_ue;
        }
      }
    }
    // dmra::hotpath end(sp-relay-up)
    bus.deliver();

    // ---- BS phase: select, commit locally, reply, broadcast.
    std::size_t accepted_this_round = 0;
    // dmra::hotpath begin(bs-accept)
    for (BsAgent& b : bs_agents) {
      // A crashed BS is a black hole: proposals die in its inbox and no
      // decision or broadcast ever leaves. UEs must discover this through
      // the protocol (bounded re-propose, serving-BS suspicion).
      if (kUnreliable && !b.alive) {
        bus.take_inbox(b.address);
        continue;
      }
      fresh.clear();
      reacks.clear();
      for (auto& env : bus.take_inbox(b.address)) {
        const auto& p = std::get<MsgPropose>(env.payload);
        // A UE this BS already admitted can only re-propose because the
        // accept got lost: re-ack idempotently, never commit twice.
        if (kUnreliable && b.admitted[ue_local[p.ue.idx()]]) {
          reacks.push_back(p.ue);
        } else {
          fresh.push_back(p);
        }
      }
      // Duplication/delay can land two generations of the same UE's
      // proposal in one inbox; admit (and answer) each UE at most once.
      if (kUnreliable && fresh.size() > 1) {
        stable_sort_by_ue(fresh, sort_scratch);
        fresh.erase(std::unique(fresh.begin(), fresh.end(),
                                [](const ProposalInfo& x, const ProposalInfo& y) {
                                  return x.ue == y.ue;
                                }),
                    fresh.end());
      }
      if (fresh.empty() && reacks.empty() && !kUnreliable) continue;

      const std::vector<ProposalInfo>& accepted =
          fresh.empty() ? empty_accepts
                        : bs_select(scenario, b.bs, fresh, b.resources, ws, config);

      for (const ProposalInfo& p : accepted) {
        const UeId u = p.ue;
        const UserEquipment& e = scenario.ue(u);
        DMRA_REQUIRE(b.resources.crus[e.service.idx()] >= e.cru_demand);
        DMRA_REQUIRE(b.resources.rrbs >= p.n_rrbs);
        b.resources.crus[e.service.idx()] -= e.cru_demand;
        b.resources.rrbs -= p.n_rrbs;
        result.dmra.allocation.assign(u, b.bs);
        if (kUnreliable) b.admitted[ue_local[u.idx()]] = true;
        ++accepted_this_round;
        if (rec != nullptr) traced_profit += scenario.pair_profit(u, b.bs);
        // Recovery accounting (run-level bookkeeping, not agent knowledge:
        // the BS cannot tell an orphan from a first-time proposer, which
        // is the point — re-admission needs no special message).
        if (crashes && ue_agents[ue_local[u.idx()]].needs_repair) {
          ue_agents[ue_local[u.idx()]].needs_repair = false;
          ++result.recovery.repaired_in_protocol;
          result.recovery.recovered_profit += scenario.pair_profit(u, b.bs);
          record_fault(obs::EventKind::kRepair, "re-match", u.value, b.bs.value, round);
        }
      }

      // Reply to every proposer through its SP.
      for (const ProposalInfo& p : fresh) {
        const bool ok = std::binary_search(accepted.begin(), accepted.end(), p, by_ue);
        bus.send(b.address, sp_address[scenario.ue(p.ue).sp.idx()], MsgDecision{p.ue, b.bs, ok});
      }
      for (UeId u : reacks) {
        bus.send(b.address, sp_address[scenario.ue(u).sp.idx()], MsgDecision{u, b.bs, true});
      }
      mix.decisions_bs_sp += fresh.size() + reacks.size();
      // Publish the new resource levels: on a reliable network in each
      // round the BS answered proposals, on an unreliable one every round,
      // so lost reads heal and matched UEs keep hearing their serving BS.
      if (!fresh.empty() || !reacks.empty() || kUnreliable) publish(b);
    }
    // dmra::hotpath end(bs-accept)
    bus.deliver();
    // Delayed proposals can make a round accept more than it sent; clamp
    // instead of letting the size_t difference wrap.
    result.dmra.rejections +=
        sent_this_round >= accepted_this_round ? sent_this_round - accepted_this_round
                                               : 0;

    // Cross-check every BS agent's local ledger against a from-scratch
    // recount of the run's partial allocation (the agents never see each
    // other's state, so on a reliable bus drift here means a protocol
    // bug); BSs outside the scope hold nothing of it and report nominal
    // capacity. On an unreliable bus a BS rightfully holds resources for
    // accepts the UE never received until it re-proposes and is re-acked,
    // and a re-proposing UE can land on a worse BS, so mid-run only partial
    // feasibility is an invariant: skip the ledger snapshot and the
    // cross-round profit chain.
    if (DMRA_AUDIT_ACTIVE()) {
      audit::RoundContext ctx;
      ctx.scenario = &scenario;
      ctx.allocation = &result.dmra.allocation;
      if (!kUnreliable) {
        ctx.ledger = audit::snapshot_ledger(
            scenario,
            [&](BsId i, ServiceId j) {
              const std::uint32_t lb = bs_local[i.idx()];
              return lb == kNotLocal ? scenario.bs(i).cru_capacity[j.idx()]
                                     : bs_agents[lb].resources.crus[j.idx()];
            },
            [&](BsId i) {
              const std::uint32_t lb = bs_local[i.idx()];
              return lb == kNotLocal ? scenario.bs(i).num_rrbs : bs_agents[lb].resources.rrbs;
            });
      }
      ctx.round = kUnreliable ? 0 : result.dmra.rounds - 1;
      ctx.source = kUnreliable ? "core/decentralized-faulty" : scope.source;
      audit::observer()->on_round(ctx);
    }

    // ---- SP relay phase (down): forward decisions to the UEs (and, like
    // the up phase, route any delay-displaced request onward to its BS,
    // which drains its inbox again next round).
    // dmra::hotpath begin(sp-relay-down)
    for (const AgentId sp : sp_address) {
      for (const auto& env : bus.take_inbox(sp)) {
        if (const auto* dec = std::get_if<MsgDecision>(&env.payload)) {
          bus.send(sp, ue_agents[ue_local[dec->ue.idx()]].address, *dec);
          ++mix.decisions_sp_ue;
        } else if (const auto* req = std::get_if<MsgOffloadRequest>(&env.payload)) {
          const BsId target = scenario.candidates(req->ue)[req->slot];
          bus.send(sp, bs_agents[bs_local[target.idx()]].address,
                   MsgPropose{req->ue, req->f_u, scenario.candidate_rrbs(req->ue)[req->slot]});
          ++mix.proposals_sp_bs;
        }
      }
    }
    // dmra::hotpath end(sp-relay-down)
    bus.deliver();

    if (rec != nullptr) {
      const obs::EventTally tally = rec->take_tally();
      obs::RoundRow row;
      row.source = scope.source;
      row.round = result.dmra.rounds - 1;
      row.proposals = tally.proposals;
      row.accepts = tally.accepts;
      row.rejects = tally.rejects;
      row.trim_evictions = tally.trim_evictions;
      row.broadcasts = tally.broadcasts;
      row.messages = bus.stats().messages_sent - msgs_before;
      row.receptions = receptions_this_round;
      // "Unmatched" = admitted nowhere and not yet given up. The BS-side
      // allocation is authoritative; at_cloud flags lag one round (UEs
      // learn outcomes at the next ingest), which is exactly the view a
      // round-close observer of the protocol would have.
      std::size_t at_cloud_count = 0;
      for (const UeAgent& a : ue_agents)
        if (a.at_cloud) ++at_cloud_count;
      row.unmatched_ues = nu - result.dmra.allocation.num_served() - at_cloud_count;
      row.cumulative_profit = traced_profit;
      for (const BsAgent& b : bs_agents) {
        for (const std::uint32_t c : b.resources.crus) row.cru_headroom += c;
        row.rrb_headroom += b.resources.rrbs;
      }
      rec->finish_round(row);
    }
    if (fr != nullptr) {
      // Cheap aggregate only — no O(nu)/O(nb) scans: the flight round
      // ring must stay within the <2% always-on budget.
      obs::RoundRow row;
      row.source = scope.source;
      row.round = result.dmra.rounds - 1;
      row.proposals = sent_this_round;
      row.accepts = accepted_this_round;
      row.rejects = sent_this_round >= accepted_this_round
                        ? sent_this_round - accepted_this_round
                        : 0;
      row.messages = bus.stats().messages_sent - msgs_before;
      row.receptions = receptions_this_round;
      fr->finish_round(row);
    }
    sample_round(round);
  }

  // ---- Final repair pass: orphans the live protocol could not re-place
  // (typically because their candidate list drained while their BSs were
  // down) get one centralized re-match against whatever capacity the
  // surviving BSs still believe they have. Whoever still cannot be placed
  // stays at the cloud — that is the graceful-degradation floor, never a
  // crash or an infeasible allocation.
  if (crashes) {
    std::vector<UeId> orphans;  // ascending, like ue_agents
    for (const UeAgent& a : ue_agents)
      if (a.needs_repair && result.dmra.allocation.is_cloud(a.ue)) orphans.push_back(a.ue);
    if (!orphans.empty()) {
      ResourceState state(scenario);
      for (const UeAgent& a : ue_agents)
        if (const auto bs = result.dmra.allocation.bs_of(a.ue))
          state.commit(a.ue, *bs, scenario.candidate_rrbs(a.ue, *bs));
      // Clamp the global view down to each BS's own ledger: a crashed BS
      // offers nothing, and a degraded (or leak-carrying) BS offers only
      // what it believes it has. The repair pass must never promise
      // capacity the agent would refuse.
      const std::vector<std::uint32_t> none(scenario.num_services(), 0);
      for (const BsAgent& b : bs_agents) {
        if (b.alive)
          state.clamp_remaining(b.bs, b.resources.crus, b.resources.rrbs);
        else
          state.clamp_remaining(b.bs, none, 0);
      }
      DmraResult repair;
      {
        // The repair state is clamped below nominal-minus-allocation, so
        // the solver's own ledger reports would trip the auditor's
        // recount; the partial allocation is re-audited manually below.
        audit::ScopedAuditObserver mute(nullptr);
        repair = solve_dmra_partial(scenario, config, state, result.dmra.allocation, orphans);
      }
      result.recovery.repair_rounds = repair.rounds;
      for (UeAgent& a : ue_agents) {
        if (!a.needs_repair || result.dmra.allocation.is_cloud(a.ue)) continue;
        a.needs_repair = false;
        const auto bs = result.dmra.allocation.bs_of(a.ue);
        ++result.recovery.repaired_by_rematch;
        result.recovery.recovered_profit += scenario.pair_profit(a.ue, *bs);
        record_fault(obs::EventKind::kRepair, "repair-rematch", a.ue.value, bs->value,
                     repair.rounds);
      }
      if (rec != nullptr || fr != nullptr) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::kPhase;
        e.label = "core/decentralized:repair";
        e.value = orphans.size();
        if (rec != nullptr) rec->record(e);
        if (fr != nullptr) fr->record(e);
      }
      if (DMRA_AUDIT_ACTIVE()) {
        audit::RoundContext ctx;  // feasibility-only: no ledger survives repair
        ctx.scenario = &scenario;
        ctx.allocation = &result.dmra.allocation;
        ctx.round = 0;
        ctx.source = "core/decentralized-repair";
        audit::observer()->on_round(ctx);
      }
    }
  }
  if (crashes) {
    for (const UeAgent& a : ue_agents)
      if (a.needs_repair) ++result.recovery.cloud_fallbacks;
  }

  result.bus = bus.stats();
  result.messages = mix;
  return run;
}

}  // namespace

namespace runtime_detail {

ProtocolRun run_protocol(const Scenario& scenario, const DmraConfig& config,
                         const NetworkConditions& net, const ProtocolScope& scope,
                         std::vector<HeldLevels>& views, LiveCandidates& b_u) {
  DMRA_REQUIRE(config.rho >= 0.0);
  const bool unreliable = net.faults != nullptr && net.faults->any();
  return unreliable ? run_scope<true>(scenario, config, net, scope, views, b_u)
                    : run_scope<false>(scenario, config, net, scope, views, b_u);
}

void publish_message_mix(const MessageMix& mix, obs::MetricsRegistry& registry) {
  registry.add_counter("msg.requests_ue_sp", mix.requests_ue_sp);
  registry.add_counter("msg.proposals_sp_bs", mix.proposals_sp_bs);
  registry.add_counter("msg.decisions_bs_sp", mix.decisions_bs_sp);
  registry.add_counter("msg.decisions_sp_ue", mix.decisions_sp_ue);
  registry.add_counter("msg.publications", mix.publications);
  registry.add_counter("msg.receptions", mix.receptions);
}

}  // namespace runtime_detail

DecentralizedResult run_decentralized_dmra(const Scenario& scenario,
                                           const DmraConfig& config,
                                           const NetworkConditions& net) {
  std::vector<UeId> ues(scenario.num_ues());
  for (std::size_t u = 0; u < ues.size(); ++u) ues[u] = UeId{static_cast<std::uint32_t>(u)};
  std::vector<BsId> bss(scenario.num_bss());
  for (std::size_t i = 0; i < bss.size(); ++i) bss[i] = BsId{static_cast<std::uint32_t>(i)};
  LiveCandidates b_u;
  b_u.build(scenario, ues);
  std::vector<runtime_detail::HeldLevels> views(scenario.num_candidate_slots());
  runtime_detail::ProtocolRun run = runtime_detail::run_protocol(
      scenario, config, net,
      {ues, bss, "core/decentralized", "core/decentralized:bootstrap"}, views, b_u);
  const DecentralizedResult& result = run.result;

  const bool faulty = net.faults != nullptr && net.faults->any();
  const auto publish_run = [&](obs::MetricsRegistry& m) {
    obs::publish_bus_stats(result.bus, m);
    runtime_detail::publish_message_mix(result.messages, m);
    if (faulty) {
      // Fault metrics exist only on faulty runs: unconditional zeros would
      // change the deterministic metrics JSON of fault-free traces.
      const FaultRecoveryStats& r = result.recovery;
      m.add_counter("fault.bs_crashes", r.bs_crashes);
      m.add_counter("fault.bs_recoveries", r.bs_recoveries);
      m.add_counter("fault.capacity_degradations", r.capacity_degradations);
      m.add_counter("fault.orphaned_ues", r.orphaned_ues);
      m.add_counter("fault.reproposals", r.reproposals);
      m.add_counter("fault.presumed_dead", r.presumed_dead);
      m.add_counter("fault.suspected_serving_bs", r.suspected_serving_bs);
      m.add_counter("fault.repaired_in_protocol", r.repaired_in_protocol);
      m.add_counter("fault.repaired_by_rematch", r.repaired_by_rematch);
      m.add_counter("fault.cloud_fallbacks", r.cloud_fallbacks);
      m.add_counter("fault.repair_rounds", r.repair_rounds);
      m.set_gauge("fault.recovered_profit", r.recovered_profit);
    }
  };
  obs::TraceRecorder* const rec = obs::recorder();
  obs::FlightRecorder* const fr = obs::flight();
  if (rec != nullptr || fr != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kTermination;
    e.flag = run.converged;
    e.value = result.dmra.rounds;
    e.label = "core/decentralized";
    if (rec != nullptr) {
      rec->record(e);
      publish_run(rec->metrics());
    }
    if (fr != nullptr) {
      fr->record(e);
      publish_run(fr->metrics());
    }
  }
  return std::move(run.result);
}

}  // namespace dmra
