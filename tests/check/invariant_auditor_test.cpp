// Negative-injection and property tests for the invariant auditor: a
// deliberately corrupted ledger, a double commit, or an over-budget RRB
// trim must be flagged; real allocators must run clean under full audit.
#include "check/invariant_auditor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include <unistd.h>

#include "../test_util.hpp"
#include "baselines/dcsp.hpp"
#include "baselines/exact.hpp"
#include "baselines/greedy.hpp"
#include "baselines/nonco.hpp"
#include "baselines/random_alloc.hpp"
#include "core/dmra_allocator.hpp"
#include "core/incremental.hpp"
#include "mec/resources.hpp"
#include "sim/churn.hpp"
#include "sim/feasibility.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

using check::AuditedAllocator;
using check::AuditFailure;
using check::AuditorOptions;
using check::InvariantAuditor;

/// RoundContext whose ledger truthfully mirrors `state`.
audit::RoundContext make_context(const Scenario& s, const Allocation& alloc,
                                 const ResourceState& state, std::size_t round = 0,
                                 std::string_view source = "test") {
  audit::RoundContext ctx;
  ctx.scenario = &s;
  ctx.allocation = &alloc;
  ctx.ledger = audit::snapshot_ledger(
      s, [&](BsId i, ServiceId j) { return state.remaining_crus(i, j); },
      [&](BsId i) { return state.remaining_rrbs(i); });
  ctx.round = round;
  ctx.source = source;
  return ctx;
}

TEST(InvariantAuditor, ConsistentRoundPasses) {
  const Scenario s = test::two_bs_scenario(4);
  ResourceState state(s);
  Allocation alloc(4);
  state.commit(UeId{0}, BsId{0}, s.candidate_rrbs(UeId{0}, BsId{0}));
  alloc.assign(UeId{0}, BsId{0});

  InvariantAuditor auditor;
  auditor.on_round(make_context(s, alloc, state));
  EXPECT_TRUE(auditor.findings().ok);
  EXPECT_EQ(auditor.rounds_audited(), 1u);
}

TEST(InvariantAuditor, CorruptedLedgerLeakIsFlagged) {
  const Scenario s = test::two_bs_scenario(4);
  ResourceState state(s);
  Allocation alloc(4);
  state.commit(UeId{0}, BsId{0}, s.candidate_rrbs(UeId{0}, BsId{0}));
  alloc.assign(UeId{0}, BsId{0});

  // Inject drift: the ledger claims one CRU more than the recount allows
  // (an unpaired release).
  auto ctx = make_context(s, alloc, state);
  ctx.ledger.crus[s.ue(UeId{0}).service.idx()] += 1;

  InvariantAuditor throwing;
  EXPECT_THROW(throwing.on_round(ctx), AuditFailure);

  InvariantAuditor collecting(AuditorOptions{.throw_on_violation = false});
  collecting.on_round(ctx);
  ASSERT_FALSE(collecting.findings().ok);
  EXPECT_NE(collecting.findings().violations.front().find("leak"), std::string::npos);
}

TEST(InvariantAuditor, DoubleCommitIsFlagged) {
  const Scenario s = test::two_bs_scenario(4);
  ResourceState state(s);
  Allocation alloc(4);
  // The ledger pays twice for one assignment — exactly what a re-proposal
  // committed twice (lost-ack bug) would look like.
  state.commit(UeId{0}, BsId{0}, s.candidate_rrbs(UeId{0}, BsId{0}));
  state.commit(UeId{0}, BsId{0}, s.candidate_rrbs(UeId{0}, BsId{0}));
  alloc.assign(UeId{0}, BsId{0});

  InvariantAuditor auditor(AuditorOptions{.throw_on_violation = false});
  auditor.on_round(make_context(s, alloc, state));
  ASSERT_FALSE(auditor.findings().ok);
  bool mentions_double = false;
  for (const auto& v : auditor.findings().violations)
    if (v.find("double") != std::string::npos) mentions_double = true;
  EXPECT_TRUE(mentions_double);
}

TEST(InvariantAuditor, OverBudgetRrbTrimFailsRoundAudit) {
  // One BS with a single RRB; a broken trim admits both UEs anyway.
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, 100, /*rrbs=*/1);
  ms.add_ue(sp, {400, 0}, ServiceId{0}, 4, 2e6);
  ms.add_ue(sp, {410, 0}, ServiceId{0}, 4, 2e6);
  const Scenario s = ms.build();

  Allocation alloc(2);
  alloc.assign(UeId{0}, BsId{0});
  alloc.assign(UeId{1}, BsId{0});

  audit::RoundContext ctx;
  ctx.scenario = &s;
  ctx.allocation = &alloc;
  ctx.round = 0;
  ctx.source = "test";  // no ledger: partial feasibility still checked

  InvariantAuditor auditor(AuditorOptions{.throw_on_violation = false});
  auditor.on_round(ctx);
  ASSERT_FALSE(auditor.findings().ok);
  bool mentions_eq14 = false;
  for (const auto& v : auditor.findings().violations)
    if (v.find("Eq. 14") != std::string::npos) mentions_eq14 = true;
  EXPECT_TRUE(mentions_eq14);

  InvariantAuditor final_auditor;
  EXPECT_THROW(final_auditor.audit_final(s, alloc), AuditFailure);
}

TEST(InvariantAuditor, MonotonicProfitViolationIsFlagged) {
  const Scenario s = test::two_bs_scenario(4);

  ResourceState round0_state(s);
  Allocation round0(4);
  round0_state.commit(UeId{0}, BsId{0}, s.candidate_rrbs(UeId{0}, BsId{0}));
  round0.assign(UeId{0}, BsId{0});

  ResourceState round1_state(s);  // full capacity again
  const Allocation round1(4);     // ... and the assignment vanished

  InvariantAuditor auditor(AuditorOptions{.throw_on_violation = false});
  auditor.on_round(make_context(s, round0, round0_state, /*round=*/0, "run"));
  EXPECT_TRUE(auditor.findings().ok);
  auditor.on_round(make_context(s, round1, round1_state, /*round=*/1, "run"));
  ASSERT_FALSE(auditor.findings().ok);
  EXPECT_NE(auditor.findings().violations.front().find("monotonic-profit"),
            std::string::npos);
}

TEST(InvariantAuditor, ProfitBaselineResetsBetweenRuns) {
  const Scenario s = test::two_bs_scenario(4);
  ResourceState state(s);
  Allocation assigned(4);
  state.commit(UeId{0}, BsId{0}, s.candidate_rrbs(UeId{0}, BsId{0}));
  assigned.assign(UeId{0}, BsId{0});
  const ResourceState fresh(s);
  const Allocation empty(4);

  InvariantAuditor auditor;
  auditor.on_round(make_context(s, assigned, state, /*round=*/0, "run"));
  // A new run (round restarts at 0) may legitimately start from zero profit.
  EXPECT_NO_THROW(auditor.on_round(make_context(s, empty, fresh, /*round=*/0, "run")));
}

TEST(InvariantAuditor, ResetClearsFindings) {
  const Scenario s = test::two_bs_scenario(4);
  ResourceState state(s);
  Allocation alloc(4);
  // Committed but never assigned: drift.
  state.commit(UeId{0}, BsId{0}, s.candidate_rrbs(UeId{0}, BsId{0}));
  InvariantAuditor auditor(AuditorOptions{.throw_on_violation = false});
  auditor.on_round(make_context(s, alloc, state));
  ASSERT_FALSE(auditor.findings().ok);
  auditor.reset();
  EXPECT_TRUE(auditor.findings().ok);
  EXPECT_EQ(auditor.rounds_audited(), 0u);
}

// A deliberately broken allocator: ignores capacities and dumps every UE
// onto the first BS. The audited wrapper must refuse its output.
class OverCommittingAllocator final : public Allocator {
 public:
  std::string name() const override { return "OverCommit"; }
  Allocation allocate(const Scenario& scenario) const override {
    Allocation alloc(scenario.num_ues());
    for (std::size_t ui = 0; ui < scenario.num_ues(); ++ui)
      alloc.assign(UeId{static_cast<std::uint32_t>(ui)}, BsId{0});
    return alloc;
  }
};

TEST(AuditedAllocator, CatchesCorruptAllocator) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, 100, /*rrbs=*/1);
  for (int n = 0; n < 3; ++n)
    ms.add_ue(sp, {400.0 + n, 0}, ServiceId{0}, 4, 2e6);
  const Scenario s = ms.build();

  const AuditedAllocator audited(std::make_unique<OverCommittingAllocator>());
  EXPECT_EQ(audited.name(), "OverCommit");
  EXPECT_THROW(audited.allocate(s), AuditFailure);
}

TEST(AuditedAllocator, PassesThroughCleanAllocators) {
  const Scenario s = test::two_bs_scenario(6);
  const AuditedAllocator audited(std::make_unique<DmraAllocator>());
  const Allocation direct = DmraAllocator().allocate(s);
  EXPECT_EQ(audited.allocate(s), direct);
}

TEST(Auditor, InstrumentedRunsReportRounds) {
  const Scenario s = test::two_bs_scenario(6);
  InvariantAuditor auditor;
  {
    audit::ScopedAuditObserver guard(&auditor);
    (void)solve_dmra(s);
  }
  EXPECT_TRUE(auditor.findings().ok);
#if defined(DMRA_AUDIT_ENABLED) && DMRA_AUDIT_ENABLED
  EXPECT_GT(auditor.rounds_audited(), 0u);
#else
  EXPECT_EQ(auditor.rounds_audited(), 0u);
#endif
}

TEST(Auditor, DecentralizedRunsCleanUnderAudit) {
  ScenarioConfig cfg;
  cfg.num_ues = 30;
  const Scenario s = generate_scenario(cfg, 7);
  InvariantAuditor auditor;
  audit::ScopedAuditObserver guard(&auditor);
  const auto reliable = run_decentralized_dmra(s);
  EXPECT_TRUE(check_feasibility(s, reliable.dmra.allocation).ok);
  FaultPlan loss;
  loss.link.drop_probability = 0.2;
  NetworkConditions lossy;
  lossy.seed = 3;
  lossy.faults = &loss;
  const auto impaired = run_decentralized_dmra(s, {}, lossy);
  EXPECT_TRUE(check_feasibility(s, impaired.dmra.allocation).ok);
  EXPECT_TRUE(auditor.findings().ok);
}

// The serving allocator's own audit seam: audit_round() after every
// admission, departure and readmit sweep, on a deployment contended
// enough to leave cloud dwellers for the sweeps to place.
TEST(Auditor, IncrementalRunsCleanUnderAudit) {
  ScenarioConfig cfg;
  cfg.bss_per_sp = 2;
  cfg.num_ues = 600;
  const Scenario s = generate_scenario(cfg, 11);
  InvariantAuditor auditor;
  audit::ScopedAuditObserver guard(&auditor);
  IncrementalAllocator inc(s);
  for (std::uint32_t u = 0; u < s.num_ues(); ++u) {
    inc.admit(UeId{u});
    inc.audit_round(0);
  }
  for (std::uint32_t u = 0; u < s.num_ues(); u += 3) {
    inc.remove(UeId{u});
    inc.audit_round(0);
  }
  std::size_t readmitted = 0;
  inc.readmit_waiting([&](UeId, BsId) { ++readmitted; });
  inc.audit_round(0);
  EXPECT_GT(readmitted, 0u);
  EXPECT_TRUE(check_feasibility(s, inc.allocation()).ok);
  EXPECT_TRUE(auditor.findings().ok);
#if defined(DMRA_AUDIT_ENABLED) && DMRA_AUDIT_ENABLED
  EXPECT_GT(auditor.rounds_audited(), s.num_ues());
#endif
}

// Online serving with a one-shot allocator deciding every placement: the
// serving ledger and the rule's own runs on the residual scenarios.
TEST(Auditor, OnlineSimulatorRunsCleanUnderAudit) {
  ChurnConfig cfg;
  cfg.deployment.bss_per_sp = 2;
  cfg.arrival_rate_hz = 6.0;
  cfg.mean_dwell_s = 20.0;
  cfg.horizon_events = 300;
  cfg.readmit_every = 16;
  cfg.seed = 6;
  const DmraAllocator allocator;
  cfg.incremental.rule = &allocator;
  InvariantAuditor auditor;
  audit::ScopedAuditObserver guard(&auditor);
  const ChurnResult result = run_churn(cfg);
  EXPECT_EQ(result.stats.events, cfg.horizon_events);
  EXPECT_GT(result.stats.departures, 0u);
  EXPECT_TRUE(auditor.findings().ok);
#if defined(DMRA_AUDIT_ENABLED) && DMRA_AUDIT_ENABLED
  EXPECT_GT(auditor.rounds_audited(), result.stats.events);  // the rule's rounds too
#endif
}

TEST(Auditor, EnvFactoryYieldsProcessAuditor) {
  audit::Observer* a = check::detail::env_auditor_factory();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, check::detail::env_auditor_factory());  // stable singleton
}

TEST(Auditor, EnvVarInstallsThrowingProcessAuditor) {
  // End-to-end proof that DMRA_AUDIT=1 wires up a live, throwing auditor:
  // the death-test child re-execs this binary with the variable set (fresh
  // env-check state), feeds the installed observer a drifted ledger, and
  // must die on the resulting AuditFailure.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ::setenv("DMRA_AUDIT", "1", 1);
  EXPECT_EXIT(
      {
        if (!audit::enabled()) _exit(0);  // would make the test fail to die
        const Scenario s = test::two_bs_scenario(4);
        ResourceState state(s);
        Allocation alloc(4);
        state.commit(UeId{0}, BsId{0}, s.candidate_rrbs(UeId{0}, BsId{0}));
        alloc.assign(UeId{0}, BsId{0});
        auto ctx = make_context(s, alloc, state);
        ctx.ledger.crus[s.ue(UeId{0}).service.idx()] += 1;
        try {
          audit::observer()->on_round(ctx);
        } catch (const AuditFailure& e) {
          std::fprintf(stderr, "%s\n", e.what());
          _exit(7);
        }
        _exit(0);
      },
      ::testing::ExitedWithCode(7), "leak");
  ::unsetenv("DMRA_AUDIT");
}

// Property: DMRA and every baseline stay invariant-clean over 50 random
// scenarios with the auditor fully enabled (per-round + final).
class AuditedAllocatorsProperty : public ::testing::TestWithParam<int> {};

TEST_P(AuditedAllocatorsProperty, FiftyRandomScenarios) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  ScenarioConfig cfg;
  cfg.num_ues = 20 + (seed % 3) * 15;  // 20, 35, or 50 arrivals
  const Scenario s = generate_scenario(cfg, seed);

  std::vector<AllocatorPtr> algos;
  algos.push_back(check::wrap_audited(std::make_unique<DmraAllocator>()));
  algos.push_back(check::wrap_audited(std::make_unique<DecentralizedDmraAllocator>()));
  algos.push_back(check::wrap_audited(std::make_unique<DcspAllocator>()));
  algos.push_back(check::wrap_audited(std::make_unique<NonCoAllocator>()));
  algos.push_back(check::wrap_audited(std::make_unique<GreedyProfitAllocator>()));
  algos.push_back(check::wrap_audited(std::make_unique<RandomAllocator>(seed)));
  for (const auto& algo : algos) {
    const Allocation alloc = algo->allocate(s);  // AuditFailure would fail the test
    EXPECT_TRUE(check_feasibility(s, alloc).ok) << algo->name();
  }

  // The exact solver only fits small instances; audit it on a downsized
  // copy of the same seed.
  ScenarioConfig tiny = cfg;
  tiny.num_ues = 8;
  const Scenario st = generate_scenario(tiny, seed);
  const Allocation exact = check::wrap_audited(std::make_unique<ExactAllocator>())
                               ->allocate(st);
  EXPECT_TRUE(check_feasibility(st, exact).ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuditedAllocatorsProperty, ::testing::Range(1, 51));

}  // namespace
}  // namespace dmra
