#include "core/preference.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "../test_util.hpp"
#include "mec/resources.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

/// The SoA view callable over a live ResourceState (what the direct solver
/// closes over): u's service CRUs and the RRBs remaining at each BS.
auto state_view(const Scenario& s, const ResourceState& rs, UeId u) {
  const ServiceId j = s.ue(u).service;
  return [&rs, j](std::size_t, BsId i) {
    return std::pair<std::uint32_t, std::uint32_t>{rs.remaining_crus(i, j),
                                                   rs.remaining_rrbs(i)};
  };
}

/// Eq. 17 for (u, i) against the state's remaining resources.
double preference(const Scenario& s, const ResourceState& rs, UeId u, BsId i, double rho) {
  return ue_preference_value(s.price(u, i), rho, rs.remaining_crus(i, s.ue(u).service),
                             rs.remaining_rrbs(i));
}

/// Every UE of the scenario, ascending.
std::vector<UeId> all_ues(const Scenario& s) {
  std::vector<UeId> out(s.num_ues());
  for (std::size_t ui = 0; ui < out.size(); ++ui) out[ui] = UeId{static_cast<std::uint32_t>(ui)};
  return out;
}

/// Every UE's B_u at its full candidate list.
LiveCandidates full_rows(const Scenario& s) {
  LiveCandidates lc;
  lc.build(s, all_ues(s));
  return lc;
}

/// The BSs left in u's live candidate row, in row order.
std::vector<BsId> live_bss(const Scenario& s, const LiveCandidates& lc, UeId u) {
  std::vector<BsId> out;
  for (const std::uint32_t slot : lc.live(u)) out.push_back(s.candidates(u)[slot]);
  return out;
}

TEST(UePreference, MatchesEq17) {
  const Scenario s = test::two_bs_scenario();
  ResourceState rs(s);
  const UeId u{0};
  const BsId i{0};
  const double rho = 150.0;
  const double expected =
      s.price(u, i) + rho / (rs.remaining_crus(i, s.ue(u).service) + rs.remaining_rrbs(i));
  EXPECT_DOUBLE_EQ(preference(s, rs, u, i, rho), expected);
}

TEST(UePreference, RhoZeroIsPureprice) {
  const Scenario s = test::two_bs_scenario();
  ResourceState rs(s);
  EXPECT_DOUBLE_EQ(preference(s, rs, UeId{0}, BsId{0}, 0.0), s.price(UeId{0}, BsId{0}));
}

TEST(UePreference, ExhaustedBsIsInfinitelyUnattractive) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, /*cru=*/4, /*rrbs=*/1);
  ms.add_ue(sp, {10, 0}, ServiceId{0}, 4, 2e6);
  ms.add_ue(sp, {20, 0}, ServiceId{0}, 4, 2e6);
  const Scenario s = ms.build();
  ResourceState rs(s);
  // Consumes all 4 CRUs and the only RRB.
  rs.commit(UeId{1}, BsId{0}, s.candidate_rrbs(UeId{1}, BsId{0}));
  EXPECT_TRUE(std::isinf(preference(s, rs, UeId{0}, BsId{0}, 10.0)));
  // With rho = 0 the resource term is absent and the price stays finite.
  EXPECT_TRUE(std::isfinite(preference(s, rs, UeId{0}, BsId{0}, 0.0)));
}

TEST(UePreference, LessLoadedBsWinsAtEqualPrice) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_bs(sp, {100, 0});
  ms.add_ue(sp, {50, 0}, ServiceId{0});  // equidistant → equal price
  ms.add_ue(sp, {40, 10}, ServiceId{0});
  const Scenario s = ms.build();
  ResourceState rs(s);
  rs.commit(UeId{1}, BsId{0}, s.candidate_rrbs(UeId{1}, BsId{0}));  // load BS 0
  EXPECT_GT(preference(s, rs, UeId{0}, BsId{0}, 100.0),
            preference(s, rs, UeId{0}, BsId{1}, 100.0));
}

TEST(ViewCanServe, ChecksEveryDimension) {
  const Scenario s = test::two_bs_scenario();
  ResourceState rs(s);
  const UeId u{0};
  const auto cands = s.candidates(u);
  ASSERT_NE(std::find(cands.begin(), cands.end(), BsId{0}), cands.end());
  // A BS counts toward f_u iff the view says it can serve u: restrict the
  // view to BS 0 alone, then take away one dimension at a time.
  const auto only_bs0 = [&](std::uint32_t crus_cut, std::uint32_t rrbs_cut) {
    const ServiceId j = s.ue(u).service;
    LiveCandidates b_u = full_rows(s);
    return propose_soa(s, b_u, u, 100.0, [&](std::size_t, BsId i) {
             if (i != BsId{0}) return std::pair<std::uint32_t, std::uint32_t>{0, 0};
             return std::pair<std::uint32_t, std::uint32_t>{rs.remaining_crus(i, j) - crus_cut,
                                                            rs.remaining_rrbs(i) - rrbs_cut};
           })
        .f_u;
  };
  EXPECT_EQ(only_bs0(0, 0), 1u);
  EXPECT_EQ(only_bs0(0, 0) == 1u, rs.can_serve(u, BsId{0}));
  EXPECT_EQ(only_bs0(rs.remaining_crus(BsId{0}, s.ue(u).service), 0), 0u);
  EXPECT_EQ(only_bs0(0, rs.remaining_rrbs(BsId{0})), 0u);
}

TEST(LiveCoverage, TracksResourceDepletion) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, /*cru=*/4);
  ms.add_bs(sp, {100, 0}, /*cru=*/4);
  ms.add_ue(sp, {50, 0}, ServiceId{0}, 4);
  ms.add_ue(sp, {50, 10}, ServiceId{0}, 4);
  const Scenario s = ms.build();
  ResourceState rs(s);
  const auto view = state_view(s, rs, UeId{0});
  LiveCandidates b_u = full_rows(s);
  EXPECT_EQ(propose_soa(s, b_u, UeId{0}, 100.0, view).f_u, 2u);
  // Exhausts BS 0's service-0 CRUs.
  rs.commit(UeId{1}, BsId{0}, s.candidate_rrbs(UeId{1}, BsId{0}));
  EXPECT_EQ(propose_soa(s, b_u, UeId{0}, 100.0, view).f_u, 1u);
}

TEST(ChooseProposal, PicksSmallestPreferenceValue) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_bs(sp, {300, 0});
  ms.add_ue(sp, {100, 0}, ServiceId{0});  // nearer to BS 0 → cheaper
  const Scenario s = ms.build();
  ResourceState rs(s);
  LiveCandidates b_u = full_rows(s);
  ASSERT_EQ(live_bss(s, b_u, UeId{0}), (std::vector<BsId>{BsId{0}, BsId{1}}));
  EXPECT_EQ(propose_soa(s, b_u, UeId{0}, 100.0, state_view(s, rs, UeId{0})).bs,
            (BsId{0}));
  EXPECT_EQ(live_bss(s, b_u, UeId{0}).size(), 2u);  // nothing erased — both serviceable
}

TEST(ChooseProposal, ErasesUnserviceableAndFallsBack) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, /*cru=*/4);
  ms.add_bs(sp, {300, 0});
  ms.add_ue(sp, {100, 0}, ServiceId{0}, 4);
  ms.add_ue(sp, {10, 0}, ServiceId{0}, 4);
  const Scenario s = ms.build();
  ResourceState rs(s);
  rs.commit(UeId{1}, BsId{0}, s.candidate_rrbs(UeId{1}, BsId{0}));  // BS 0 out of CRUs
  LiveCandidates b_u = full_rows(s);
  ASSERT_EQ(live_bss(s, b_u, UeId{0}), (std::vector<BsId>{BsId{0}, BsId{1}}));
  // With a small rho the near (cheap) BS 0 is still the argmin; it is
  // unserviceable, so Alg. 1 line 10 erases it and falls back to BS 1.
  EXPECT_EQ(propose_soa(s, b_u, UeId{0}, 10.0, state_view(s, rs, UeId{0})).bs,
            (BsId{1}));
  // BS 0 permanently erased.
  EXPECT_EQ(live_bss(s, b_u, UeId{0}), (std::vector<BsId>{BsId{1}}));
}

TEST(ChooseProposal, DoesNotEraseBsesItNeverPicked) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, /*cru=*/4);
  ms.add_bs(sp, {300, 0});
  ms.add_ue(sp, {100, 0}, ServiceId{0}, 4);
  ms.add_ue(sp, {10, 0}, ServiceId{0}, 4);
  const Scenario s = ms.build();
  ResourceState rs(s);
  rs.commit(UeId{1}, BsId{0}, s.candidate_rrbs(UeId{1}, BsId{0}));
  LiveCandidates b_u = full_rows(s);
  ASSERT_EQ(live_bss(s, b_u, UeId{0}), (std::vector<BsId>{BsId{0}, BsId{1}}));
  // A huge rho makes the exhausted BS 0 infinitely unattractive: BS 1 is
  // the argmin directly, so BS 0 stays in B_u (only picked-and-failed BSs
  // are deleted).
  EXPECT_EQ(propose_soa(s, b_u, UeId{0}, 1e6, state_view(s, rs, UeId{0})).bs,
            (BsId{1}));
  EXPECT_EQ(live_bss(s, b_u, UeId{0}).size(), 2u);
}

TEST(ChooseProposal, ReturnsNulloptWhenExhausted) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, /*cru=*/4);
  ms.add_ue(sp, {100, 0}, ServiceId{0}, 4);
  ms.add_ue(sp, {10, 0}, ServiceId{0}, 4);
  const Scenario s = ms.build();
  ResourceState rs(s);
  rs.commit(UeId{1}, BsId{0}, s.candidate_rrbs(UeId{1}, BsId{0}));
  LiveCandidates b_u = full_rows(s);
  ASSERT_EQ(live_bss(s, b_u, UeId{0}), (std::vector<BsId>{BsId{0}}));
  EXPECT_FALSE(
      propose_soa(s, b_u, UeId{0}, 100.0, state_view(s, rs, UeId{0})).bs.has_value());
  EXPECT_TRUE(b_u.empty(UeId{0}));
}

TEST(LiveCandidates, RebuildEmptiesThePreviousRowsAndRefillsTheNew) {
  // A rebuild on a pool already sized for the scenario keeps the pool and
  // empties only the previous build's rows, so every UE left out of the
  // new build reads an empty row, shrunk or not.
  ScenarioConfig cfg;
  cfg.num_ues = 40;
  const Scenario s = generate_scenario(cfg, 4);
  LiveCandidates lc;
  const std::vector<UeId> first{UeId{0}, UeId{1}, UeId{2}};
  lc.build(s, first);
  ASSERT_FALSE(lc.empty(UeId{0}));
  ASSERT_FALSE(lc.empty(UeId{1}));
  lc.erase_at(UeId{1}, 0);
  const std::vector<UeId> second{UeId{1}, UeId{3}};
  lc.build(s, second);
  for (std::uint32_t ui = 0; ui < s.num_ues(); ++ui) {
    const UeId u{ui};
    const bool built = ui == 1 || ui == 3;
    ASSERT_EQ(lc.live(u).size(), built ? s.candidates(u).size() : 0u) << "ue " << ui;
    for (std::size_t k = 0; k < lc.live(u).size(); ++k) EXPECT_EQ(lc.live(u)[k], k);
  }
}

// ---- propose_soa against the two-pass loop it replaced ----------------------

/// The UE step before propose_soa, kept here as the reference: propose to
/// the live argmin of (v, BsId), erase it when unserviceable and propose
/// again (one pass per try), then count f_u over the full row in a pass of
/// its own.
template <typename ViewFn>
std::optional<BsId> choose_proposal_soa(const Scenario& scenario, LiveCandidates& lc, UeId u,
                                        double rho, ViewFn&& view) {
  const std::span<const BsId> cands = scenario.candidates(u);
  const std::span<const double> prices = scenario.candidate_prices(u);
  const std::span<const std::uint32_t> rrb_demand = scenario.candidate_rrbs(u);
  const std::size_t base = scenario.candidate_offset(u);
  const std::uint32_t cru_demand = scenario.ue(u).cru_demand;
  while (!lc.empty(u)) {
    const std::span<const std::uint32_t> row = lc.live(u);
    std::size_t best = 0;
    auto [best_crus, best_rrbs] = view(base + row[0], cands[row[0]]);
    double best_v = ue_preference_value(prices[row[0]], rho, best_crus, best_rrbs);
    for (std::size_t n = 1; n < row.size(); ++n) {
      const auto [crus, rrbs] = view(base + row[n], cands[row[n]]);
      const double v = ue_preference_value(prices[row[n]], rho, crus, rrbs);
      if (v < best_v || (v == best_v && cands[row[n]] < cands[row[best]])) {
        best = n;
        best_v = v;
        best_crus = crus;
        best_rrbs = rrbs;
      }
    }
    const std::uint32_t slot = row[best];
    if (rrb_demand[slot] != 0 && best_crus >= cru_demand && best_rrbs >= rrb_demand[slot])
      return cands[slot];
    lc.erase_at(u, best);
  }
  return std::nullopt;
}

template <typename ViewFn>
std::uint32_t live_coverage_count_soa(const Scenario& scenario, UeId u, ViewFn&& view) {
  const std::span<const BsId> cands = scenario.candidates(u);
  const std::span<const std::uint32_t> rrb_demand = scenario.candidate_rrbs(u);
  const std::size_t base = scenario.candidate_offset(u);
  const std::uint32_t cru_demand = scenario.ue(u).cru_demand;
  std::uint32_t n = 0;
  for (std::size_t k = 0; k < cands.size(); ++k) {
    if (rrb_demand[k] == 0) continue;
    const auto [crus, rrbs] = view(base + k, cands[k]);
    if (crus >= cru_demand && rrbs >= rrb_demand[k]) ++n;
  }
  return n;
}

// Views here are random and non-monotone — a level may rise between calls,
// as a runtime view can (stale broadcasts, the optimistic prior, a BS back
// from an outage) — and drawn from a few levels around each demand, so
// (v, BsId) ties are common: equal remaining sums, +inf for exhausted BSs
// at ρ > 0, and equal prices in the symmetric deployment.
TEST(ProposeSoa, MatchesTwoPassReferenceOnRandomViews) {
  std::vector<Scenario> scenarios;
  ScenarioConfig paper;
  paper.num_ues = 300;
  scenarios.push_back(generate_scenario(paper, 11));
  ScenarioConfig dense = paper;  // the paper's density over a 100-BS grid
  dense.bss_per_sp = 20;
  dense.area_side_m = 3000.0;
  dense.num_ues = 600;
  scenarios.push_back(generate_scenario(dense, 12));
  test::MiniScenario ms;  // four same-SP BSs equidistant from every UE
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {-200, 0}, 8, 20);
  ms.add_bs(sp, {200, 0}, 12, 10);
  ms.add_bs(sp, {0, -200}, 8, 20);
  ms.add_bs(sp, {0, 200}, 4, 40);
  for (std::uint32_t d = 3; d <= 5; ++d) {
    ms.add_ue(sp, {0, 0}, ServiceId{0}, d, 2e6);
    ms.add_ue(sp, {0, 0}, ServiceId{1}, d, 6e6);
  }
  scenarios.push_back(ms.build());

  Rng rng("propose-soa", 1);
  const auto level = [&](std::uint32_t demand) -> std::uint32_t {
    constexpr std::int64_t kOffsets[] = {-2, -1, 0, 0, 1, 3, 40};
    if (rng.bernoulli(0.1)) return 0;
    const std::int64_t v = static_cast<std::int64_t>(demand) + kOffsets[rng.index(7)];
    return static_cast<std::uint32_t>(std::max<std::int64_t>(v, 0));
  };
  std::size_t calls = 0, erased = 0, exhausted = 0;
  for (const Scenario& s : scenarios) {
    const std::vector<UeId> everyone = all_ues(s);
    std::vector<std::uint32_t> crus(s.num_candidate_slots());
    std::vector<std::uint32_t> rrbs(s.num_candidate_slots());
    const auto view = [&](std::size_t slot, BsId) {
      return std::pair<std::uint32_t, std::uint32_t>{crus[slot], rrbs[slot]};
    };
    for (const double rho : {0.0, 1.0, 100.0, 1e6}) {
      LiveCandidates kernel = full_rows(s);
      LiveCandidates reference = full_rows(s);
      for (int pass = 0; pass < 6; ++pass) {  // rows shrink across passes
        for (const UeId u : everyone) {
          const std::size_t base = s.candidate_offset(u);
          const std::span<const std::uint32_t> rrb_demand = s.candidate_rrbs(u);
          for (std::size_t k = 0; k < rrb_demand.size(); ++k) {
            crus[base + k] = level(s.ue(u).cru_demand);
            rrbs[base + k] = level(rrb_demand[k]);
          }
        }
        for (const UeId u : everyone) {
          const std::size_t before = kernel.live(u).size();
          const Proposal got = propose_soa(s, kernel, u, rho, view);
          const std::optional<BsId> want = choose_proposal_soa(s, reference, u, rho, view);
          ASSERT_EQ(got.bs, want) << "ue " << u.value << " rho " << rho;
          ASSERT_EQ(got.f_u, live_coverage_count_soa(s, u, view))
              << "ue " << u.value << " rho " << rho;
          ASSERT_TRUE(std::ranges::equal(kernel.live(u), reference.live(u)))
              << "ue " << u.value << " rho " << rho;
          if (got.bs) {  // the chosen slot, and the n(u,i) a BS selects on
            ASSERT_EQ(s.candidates(u)[got.slot], *got.bs);
            ASSERT_EQ(got.n_rrbs, s.link(u, *got.bs).n_rrbs);
          }
          erased += before - kernel.live(u).size();
          exhausted += got.bs ? 0 : 1;
          ++calls;
        }
      }
    }
  }
  EXPECT_GT(calls, 20000u);
  EXPECT_GT(erased, 1000u);  // line 10 fired, sorted before the choice…
  EXPECT_GT(exhausted, 0u);  // …and drained whole rows
}

// ---- bs_select --------------------------------------------------------------

Scenario contested_scenario() {
  // One BS (SP0), UEs from both SPs requesting service 0.
  test::MiniScenario ms;
  const SpId sp0 = ms.add_sp();
  const SpId sp1 = ms.add_sp();
  ms.add_bs(sp0, {0, 0});
  ms.add_bs(sp1, {1000, 1000});  // far decoy so f_u can differ
  ms.add_ue(sp1, {10, 0}, ServiceId{0});   // UE 0: cross-SP
  ms.add_ue(sp0, {20, 0}, ServiceId{0});   // UE 1: same-SP
  ms.add_ue(sp0, {30, 0}, ServiceId{0});   // UE 2: same-SP
  return ms.build();
}

BsLocalResources full_resources(const Scenario& s, BsId i) {
  return {s.bs(i).cru_capacity, s.bs(i).num_rrbs};
}

/// UE u's proposal to BS 0, reporting `f_u` and carrying n(u,0).
ProposalInfo to_bs0(const Scenario& s, UeId u, std::uint32_t f_u) {
  return {u, f_u, s.link(u, BsId{0}).n_rrbs};
}

TEST(BsSelect, SameSpPoolBeatsCrossSp) {
  const Scenario s = contested_scenario();
  const auto accepted = bs_select(s, BsId{0},
                                  {to_bs0(s, UeId{0}, 1), to_bs0(s, UeId{1}, 1)},
                                  full_resources(s, BsId{0}));
  // One winner for the single contested service: the same-SP UE 1.
  EXPECT_EQ(accepted, (std::vector<UeId>{UeId{1}}));
}

TEST(BsSelect, SmallerFuWinsWithinPool) {
  const Scenario s = contested_scenario();
  const auto accepted = bs_select(s, BsId{0},
                                  {to_bs0(s, UeId{1}, 5), to_bs0(s, UeId{2}, 2)},
                                  full_resources(s, BsId{0}));
  EXPECT_EQ(accepted, (std::vector<UeId>{UeId{2}}));
}

TEST(BsSelect, FootprintBreaksFuTies) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {10, 0}, ServiceId{0}, /*cru=*/5);
  ms.add_ue(sp, {10, 5}, ServiceId{0}, /*cru=*/3);
  const Scenario s = ms.build();
  const auto accepted = bs_select(s, BsId{0}, {to_bs0(s, UeId{0}, 1), to_bs0(s, UeId{1}, 1)},
                                  full_resources(s, BsId{0}));
  EXPECT_EQ(accepted, (std::vector<UeId>{UeId{1}}));  // smaller footprint
}

TEST(BsSelect, OneWinnerPerServiceManyServicesAtOnce) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {10, 0}, ServiceId{0});
  ms.add_ue(sp, {20, 0}, ServiceId{0});
  ms.add_ue(sp, {10, 5}, ServiceId{1});
  const Scenario s = ms.build();
  const auto accepted =
      bs_select(s, BsId{0}, {to_bs0(s, UeId{0}, 1), to_bs0(s, UeId{1}, 1), to_bs0(s, UeId{2}, 1)},
                full_resources(s, BsId{0}));
  // Service 0 → one of UE {0,1}; service 1 → UE 2.
  EXPECT_EQ(accepted.size(), 2u);
  EXPECT_TRUE(std::find(accepted.begin(), accepted.end(), UeId{2}) != accepted.end());
}

TEST(BsSelect, RadioTrimDropsLeastPreferred) {
  test::MiniScenario ms;
  const SpId sp0 = ms.add_sp();
  const SpId sp1 = ms.add_sp();
  ms.add_bs(sp0, {0, 0}, 100, /*rrbs=*/1);  // room for exactly one 1-RRB UE
  ms.add_ue(sp0, {10, 0}, ServiceId{0}, 4, 2e6);
  ms.add_ue(sp1, {10, 5}, ServiceId{1}, 4, 2e6);
  const Scenario s = ms.build();
  const auto accepted = bs_select(s, BsId{0}, {to_bs0(s, UeId{0}, 1), to_bs0(s, UeId{1}, 1)},
                                  full_resources(s, BsId{0}));
  // Both are sole winners of their services; only 1 RRB available: the
  // same-SP UE 0 survives the trim.
  EXPECT_EQ(accepted, (std::vector<UeId>{UeId{0}}));
}

TEST(BsSelect, SkipsProposalsItCanNoLongerHonour) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, /*cru=*/3);
  ms.add_ue(sp, {10, 0}, ServiceId{0}, /*cru=*/4);  // bigger than capacity
  const Scenario s = ms.build();
  const auto accepted =
      bs_select(s, BsId{0}, {to_bs0(s, UeId{0}, 1)}, full_resources(s, BsId{0}));
  EXPECT_TRUE(accepted.empty());
}

TEST(BsSelect, ProposalWithoutRrbDemandIsContractViolation) {
  // Every candidate slot carries n(u,i) > 0; a zero one came from no slot.
  const Scenario s = contested_scenario();
  EXPECT_THROW(
      bs_select(s, BsId{0}, {ProposalInfo{UeId{0}, 1, 0}}, full_resources(s, BsId{0})),
      ContractViolation);
}

TEST(BsSelect, OrderIndependent) {
  const Scenario s = contested_scenario();
  std::vector<ProposalInfo> props{to_bs0(s, UeId{0}, 3), to_bs0(s, UeId{1}, 2),
                                  to_bs0(s, UeId{2}, 2)};
  const auto a = bs_select(s, BsId{0}, props, full_resources(s, BsId{0}));
  std::reverse(props.begin(), props.end());
  const auto b = bs_select(s, BsId{0}, props, full_resources(s, BsId{0}));
  EXPECT_EQ(a, b);
}

TEST(BsSelect, AblationDisablesSameSpPreference) {
  const Scenario s = contested_scenario();
  DmraConfig cfg;
  cfg.prefer_same_sp = false;
  // Without the same-SP pool, the smaller-f_u proposer wins even cross-SP.
  const auto accepted = bs_select(s, BsId{0}, {to_bs0(s, UeId{0}, 1), to_bs0(s, UeId{1}, 4)},
                                  full_resources(s, BsId{0}), cfg);
  EXPECT_EQ(accepted, (std::vector<UeId>{UeId{0}}));
}

TEST(BsSelect, AblationDisablesCoverageCount) {
  const Scenario s = contested_scenario();
  DmraConfig cfg;
  cfg.use_coverage_count = false;
  // UE 1 has the worse f_u but equal footprint and the smaller id among
  // same-SP proposers {1, 2}; without f_u it wins by id.
  const auto accepted = bs_select(s, BsId{0}, {to_bs0(s, UeId{1}, 9), to_bs0(s, UeId{2}, 1)},
                                  full_resources(s, BsId{0}), cfg);
  EXPECT_EQ(accepted, (std::vector<UeId>{UeId{1}}));
}

}  // namespace
}  // namespace dmra
