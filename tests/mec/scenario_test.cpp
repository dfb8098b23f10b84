#include "mec/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "../test_util.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

using test::MiniScenario;

TEST(Scenario, LinkStatsMatchManualComputation) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0.0, 0.0});
  ms.add_ue(sp, {300.0, 400.0}, ServiceId{0}, 4, 4e6);
  const Scenario s = ms.build();

  const LinkStats& l = s.link(UeId{0}, BsId{0});
  EXPECT_DOUBLE_EQ(l.distance_m, 500.0);
  EXPECT_TRUE(l.in_coverage);  // exactly at the default 500 m radius
  const double expected_sinr = sinr(s.channel(), 500.0, s.ofdma().rrb_bandwidth_hz);
  EXPECT_DOUBLE_EQ(l.sinr, expected_sinr);
  const double expected_rate = rrb_rate_bps(s.ofdma().rrb_bandwidth_hz, expected_sinr);
  EXPECT_DOUBLE_EQ(l.rrb_rate_bps, expected_rate);
  EXPECT_EQ(l.n_rrbs, rrbs_needed(4e6, expected_rate));
}

TEST(Scenario, OutOfCoverageLinkHasNoRrbs) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0.0, 0.0});
  ms.add_ue(sp, {501.0, 0.0}, ServiceId{0});
  const Scenario s = ms.build();
  EXPECT_FALSE(s.link(UeId{0}, BsId{0}).in_coverage);
  EXPECT_EQ(s.link(UeId{0}, BsId{0}).n_rrbs, 0u);
  EXPECT_TRUE(s.candidates(UeId{0}).empty());
}

TEST(Scenario, CandidatesRequireHostedService) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs_hosting(sp, {0.0, 0.0}, {ServiceId{0}});    // hosts only service 0
  ms.add_bs_hosting(sp, {100.0, 0.0}, {ServiceId{1}});  // hosts only service 1
  ms.add_ue(sp, {50.0, 0.0}, ServiceId{1});
  const Scenario s = ms.build();
  const auto cands = s.candidates(UeId{0});
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0], (BsId{1}));
}

TEST(Scenario, CandidatesRequireCapacityForTheDemand) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0.0, 0.0}, /*cru_per_service=*/3);
  ms.add_ue(sp, {10.0, 0.0}, ServiceId{0}, /*cru_demand=*/4);
  const Scenario s = ms.build();
  EXPECT_TRUE(s.candidates(UeId{0}).empty());  // 4 CRUs never fit in 3
}

TEST(Scenario, CandidatesRequireRadioFeasibility) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0.0, 0.0}, 100, /*rrbs=*/1);
  // 6 Mbit/s at 450 m needs 2 RRBs > budget of 1.
  ms.add_ue(sp, {450.0, 0.0}, ServiceId{0}, 4, 6e6);
  // A demand no BS can carry saturates n(u,i) and is never a candidate.
  ms.add_ue(sp, {10.0, 0.0}, ServiceId{0}, 4, 1e300);
  const Scenario s = ms.build();
  EXPECT_TRUE(s.candidates(UeId{0}).empty());
  EXPECT_TRUE(s.candidates(UeId{1}).empty());
  EXPECT_EQ(s.link(UeId{1}, BsId{0}).n_rrbs, kUnservableRrbs);
}

TEST(Scenario, SameSpAndPricing) {
  const Scenario s = test::two_bs_scenario(2);
  EXPECT_TRUE(s.same_sp(UeId{0}, BsId{0}));   // UE 0 → SP0, BS 0 → SP0
  EXPECT_FALSE(s.same_sp(UeId{0}, BsId{1}));
  const double d = s.link(UeId{0}, BsId{0}).distance_m;
  EXPECT_DOUBLE_EQ(s.price(UeId{0}, BsId{0}), cru_price(s.pricing(), d, true));
  EXPECT_DOUBLE_EQ(s.pair_profit(UeId{0}, BsId{0}),
                   4.0 * cru_margin(s.pricing(), d, true));
}

TEST(Scenario, CoverageCountIsCandidateCount) {
  const Scenario s = test::two_bs_scenario(4);
  for (std::size_t u = 0; u < s.num_ues(); ++u) {
    const UeId id{static_cast<std::uint32_t>(u)};
    EXPECT_EQ(s.coverage_count(id), s.candidates(id).size());
  }
}

TEST(ScenarioValidation, RejectsEmptyEntitySets) {
  ScenarioData d;
  d.num_services = 1;
  EXPECT_THROW(Scenario(std::move(d)), ContractViolation);
}

TEST(ScenarioValidation, RejectsNonContiguousIds) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {0, 0}, ServiceId{0});
  ms.data().ues[0].id = UeId{5};
  EXPECT_THROW(ms.build(), ContractViolation);
}

TEST(ScenarioValidation, RejectsUnknownSpReference) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {0, 0}, ServiceId{0});
  ms.data().bss[0].sp = SpId{9};
  EXPECT_THROW(ms.build(), ContractViolation);
}

TEST(ScenarioValidation, RejectsUnknownServiceRequest) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {0, 0}, ServiceId{7});
  EXPECT_THROW(ms.build(), ContractViolation);
}

TEST(ScenarioValidation, RejectsWrongCapacityVectorLength) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {0, 0}, ServiceId{0});
  ms.data().bss[0].cru_capacity.resize(1);  // num_services is 2
  EXPECT_THROW(ms.build(), ContractViolation);
}

TEST(ScenarioValidation, RejectsZeroCruDemand) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {0, 0}, ServiceId{0}, /*cru_demand=*/0);
  EXPECT_THROW(ms.build(), ContractViolation);
}

TEST(ScenarioValidation, RejectsNonFinitePositionsAndRrbCounts) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const Point bad : {Point{inf, 0.0}, Point{0.0, -inf}, Point{std::nan(""), 0.0}}) {
    for (const bool on_bs : {true, false}) {
      MiniScenario ms;
      const SpId sp = ms.add_sp();
      ms.add_bs(sp, on_bs ? bad : Point{0, 0});
      ms.add_ue(sp, on_bs ? Point{0, 0} : bad, ServiceId{0});
      EXPECT_THROW(ms.build(), ContractViolation);
    }
  }
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, 100, kUnservableRrbs);
  EXPECT_THROW(ms.build(), ContractViolation);
}

TEST(Scenario, ZeroRrbBsIsInertNotInvalid) {
  // Radio-exhausted BSs occur in the residual scenarios a serving
  // admission rule sees; they must validate but can never be candidates.
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0}, 100, /*rrbs=*/0);
  ms.add_ue(sp, {10, 0}, ServiceId{0});
  const Scenario s = ms.build();
  EXPECT_TRUE(s.candidates(UeId{0}).empty());
}

TEST(ScenarioValidation, RejectsPricingViolatingEq16) {
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {0, 0}, ServiceId{0});
  ms.data().pricing.m_k = 2.0;  // cannot cover cross-SP price at 500 m
  EXPECT_THROW(ms.build(), ContractViolation);
}

// ---- the CSR link store against a brute-force reference -------------------

/// Bitwise equality — the store must agree with the reference to the last
/// ulp, since algorithms branch on exact comparisons of these values.
bool bit_equal(const LinkStats& a, const LinkStats& b) {
  return std::memcmp(&a.distance_m, &b.distance_m, sizeof a.distance_m) == 0 &&
         std::memcmp(&a.sinr, &b.sinr, sizeof a.sinr) == 0 &&
         std::memcmp(&a.rrb_rate_bps, &b.rrb_rate_bps, sizeof a.rrb_rate_bps) == 0 &&
         a.n_rrbs == b.n_rrbs && a.in_coverage == b.in_coverage;
}

/// One pair's link from the radio model directly, with no spatial index:
/// all zeros beyond the radius, out of coverage at zero rate.
LinkStats reference_link(const Scenario& s, const UserEquipment& e, const BaseStation& b) {
  LinkStats l;
  const double d = distance_m(e.position, b.position);
  if (d > s.coverage_radius_m()) return l;
  l.distance_m = d;
  l.sinr = sinr(s.channel(), d, s.ofdma().rrb_bandwidth_hz, e.id.value, b.id.value);
  l.rrb_rate_bps = rrb_rate_bps(s.ofdma().rrb_bandwidth_hz, l.sinr);
  l.in_coverage = l.rrb_rate_bps > 0.0;
  if (l.in_coverage) l.n_rrbs = rrbs_needed(e.rate_demand_bps, l.rrb_rate_bps);
  return l;
}

/// Every (UE, BS) pair of `s` against the O(U·B) reference: link stats bit
/// for bit, and each UE's candidates, prices and RRB rows.
void expect_matches_reference(const Scenario& s, const std::string& label) {
  for (const UserEquipment& e : s.ues()) {
    std::vector<BsId> cands;
    std::vector<double> prices;
    std::vector<std::uint32_t> rrbs;
    for (const BaseStation& b : s.bss()) {
      const LinkStats ref = reference_link(s, e, b);
      ASSERT_TRUE(bit_equal(s.link(e.id, b.id), ref))
          << label << " ue=" << e.id.value << " bs=" << b.id.value;
      if (ref.in_coverage && b.hosts(e.service) && ref.n_rrbs <= b.num_rrbs &&
          e.cru_demand <= b.cru_capacity[e.service.idx()]) {
        cands.push_back(b.id);
        prices.push_back(b.price_multiplier * cru_price(s.pricing(), ref.distance_m, e.sp == b.sp));
        rrbs.push_back(ref.n_rrbs);
      }
    }
    const auto sc = s.candidates(e.id);
    const auto sp = s.candidate_prices(e.id);
    const auto sr = s.candidate_rrbs(e.id);
    ASSERT_EQ(s.coverage_count(e.id), cands.size()) << label << " ue=" << e.id.value;
    ASSERT_TRUE(std::equal(sc.begin(), sc.end(), cands.begin(), cands.end())) << label;
    ASSERT_TRUE(std::equal(sp.begin(), sp.end(), prices.begin(), prices.end())) << label;
    ASSERT_TRUE(std::equal(sr.begin(), sr.end(), rrbs.begin(), rrbs.end())) << label;
  }
}

TEST(ScenarioLinkBuild, SparseMatchesDenseAcrossRandomConfigs) {
  // Property test: 25 random deployments, then the paper's (25 BSs) and
  // the dense one (100 BSs on 3000 m), each compared over every pair.
  Rng rng("link-build-property", 7);
  for (int trial = 0; trial < 25; ++trial) {
    ScenarioConfig cfg;
    cfg.num_sps = 1 + static_cast<std::size_t>(rng.uniform_int(0, 4));
    cfg.bss_per_sp = 1 + static_cast<std::size_t>(rng.uniform_int(0, 5));
    cfg.num_ues = 10 + static_cast<std::size_t>(rng.uniform_int(0, 190));
    cfg.coverage_radius_m = 150.0 + 150.0 * rng.uniform_int(0, 3);
    cfg.area_side_m = 600.0 + 300.0 * rng.uniform_int(0, 4);
    cfg.placement = rng.uniform_int(0, 1) == 0 ? PlacementMethod::kRegularGrid
                                               : PlacementMethod::kRandom;
    const std::uint64_t seed = static_cast<std::uint64_t>(trial) + 1;
    expect_matches_reference(generate_scenario(cfg, seed), "trial " + std::to_string(trial));
  }
  ScenarioConfig paper;
  paper.num_ues = 800;
  expect_matches_reference(generate_scenario(paper, 1), "paper");
  ScenarioConfig dense;
  dense.bss_per_sp = 20;
  dense.area_side_m = 3000.0;
  dense.num_ues = 4000;
  expect_matches_reference(generate_scenario(dense, 1), "dense");
}

/// `s`'s inputs, to rebuild it with changes.
ScenarioData data_of(const Scenario& s) {
  ScenarioData d;
  d.num_services = s.num_services();
  d.sps.assign(s.sps().begin(), s.sps().end());
  d.bss.assign(s.bss().begin(), s.bss().end());
  d.ues.assign(s.ues().begin(), s.ues().end());
  d.channel = s.channel();
  d.ofdma = s.ofdma();
  d.pricing = s.pricing();
  d.coverage_radius_m = s.coverage_radius_m();
  return d;
}

TEST(ScenarioLinkBuild, KernelMatchesTheRadioModelOnEveryChannel) {
  // The build computes the SINR denominator once and every other term per
  // link; the reference calls sinr() per pair. Each channel knob that
  // feeds either part, then the same UEs and BSs repriced per BS with one
  // BS left without RRBs (never a candidate).
  for (int variant = 0; variant < 7; ++variant) {
    ScenarioConfig cfg;
    cfg.num_ues = 400;
    ChannelConfig& ch = cfg.channel;
    std::string label;
    switch (variant) {
      case 0: ch.pathloss_model = PathlossModel::kFreeSpace; label = "free-space"; break;
      case 1: ch.pathloss_model = PathlossModel::kLteMacro; label = "lte-macro"; break;
      case 2: ch.pathloss_model = PathlossModel::kTwoRay; label = "two-ray"; break;
      case 3:
        ch.shadowing_sigma_db = 8.0;
        ch.shadowing_seed = 11;
        label = "shadowing";
        break;
      case 4: ch.noise_model = NoiseModel::kPsd; label = "psd-noise"; break;
      case 5: cfg.interference_activity_factor = 0.5; label = "interference"; break;
      default:
        ch.pathloss_model = PathlossModel::kLteMacro;
        ch.shadowing_sigma_db = 6.0;
        ch.shadowing_seed = 3;
        ch.noise_model = NoiseModel::kPsd;
        cfg.interference_activity_factor = 0.3;
        label = "combined";
    }
    const Scenario s = generate_scenario(cfg, static_cast<std::uint64_t>(variant) + 40);
    if (variant == 5) {
      ASSERT_GT(s.channel().interference_psd_mw_hz, 0.0);
    }
    expect_matches_reference(s, label);

    ScenarioData d = data_of(s);
    for (std::size_t i = 0; i < d.bss.size(); ++i)
      d.bss[i].price_multiplier = 0.5 + 0.1 * static_cast<double>(i % 5);
    d.bss[0].num_rrbs = 0;
    const Scenario repriced(std::move(d));
    expect_matches_reference(repriced, label + " repriced");
    for (const UserEquipment& e : repriced.ues())
      ASSERT_EQ(repriced.candidate_slot(e.id, BsId{0}), Scenario::kNotCandidate) << label;
  }
}

/// Every candidate slot against the link store, bit for bit: the serving
/// path reads n(u,i), the price and the pair profit from the slot and
/// never searches the link store, so the two must not differ in one ulp.
void expect_slots_match_links(const Scenario& s, const std::string& label) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const UserEquipment& e : s.ues()) {
    const auto cands = s.candidates(e.id);
    const auto rrbs = s.candidate_rrbs(e.id);
    const auto prices = s.candidate_prices(e.id);
    for (std::size_t k = 0; k < cands.size(); ++k) {
      const BsId i = cands[k];
      ASSERT_EQ(rrbs[k], s.link(e.id, i).n_rrbs) << label << " ue=" << e.id.value;
      ASSERT_EQ(bits(prices[k]), bits(s.price(e.id, i))) << label << " ue=" << e.id.value;
      ASSERT_EQ(bits(s.candidate_profit(e.id, k)), bits(s.pair_profit(e.id, i)))
          << label << " ue=" << e.id.value;
      ASSERT_EQ(s.candidate_slot(e.id, i), k) << label;
      ASSERT_EQ(s.candidate_rrbs(e.id, i), rrbs[k]) << label;
    }
    for (const BaseStation& b : s.bss()) {
      if (std::find(cands.begin(), cands.end(), b.id) != cands.end()) continue;
      ASSERT_EQ(s.candidate_slot(e.id, b.id), Scenario::kNotCandidate) << label;
      ASSERT_EQ(s.candidate_rrbs(e.id, b.id), 0u) << label;
    }
  }
}

TEST(ScenarioLinkBuild, CandidateSlotsAgreeWithTheLinkStore) {
  ScenarioConfig paper;
  paper.num_ues = 800;
  expect_slots_match_links(generate_scenario(paper, 1), "paper");
  ScenarioConfig dense;
  dense.bss_per_sp = 20;
  dense.area_side_m = 3000.0;
  dense.num_ues = 4000;
  expect_slots_match_links(generate_scenario(dense, 1), "dense");
  ScenarioConfig shadowed = dense;
  shadowed.num_ues = 2000;
  shadowed.channel.shadowing_sigma_db = 8.0;
  shadowed.channel.shadowing_seed = 5;
  expect_slots_match_links(generate_scenario(shadowed, 2), "shadowed");
}

TEST(ScenarioLinkBuild, FarFinitePositionsStayInTheSparseGrid) {
  // The sparse build hashes positions into coverage-radius cells; a UE
  // 1e300 m out must land in a clamped edge cell, not an out-of-range
  // integer, and the UEs in range must keep their candidates.
  MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0.0, 0.0});
  ms.add_ue(sp, {1e300, 0.0}, ServiceId{0});
  ms.add_ue(sp, {-1e300, 1e300}, ServiceId{0});
  ms.add_ue(sp, {10.0, 0.0}, ServiceId{0});
  const Scenario s = ms.build();
  EXPECT_TRUE(s.candidates(UeId{0}).empty());
  EXPECT_TRUE(s.candidates(UeId{1}).empty());
  ASSERT_EQ(s.candidates(UeId{2}).size(), 1u);
  EXPECT_FALSE(s.link(UeId{0}, BsId{0}).in_coverage);
}

TEST(ScenarioLinkBuild, AllOutOfCoverageDegenerateScenario) {
  // Degenerate case: a radius so small no BS covers any UE — every link
  // must come back as the canonical zero stats.
  ScenarioConfig cfg;
  cfg.num_ues = 40;
  cfg.coverage_radius_m = 1e-3;
  const Scenario s = generate_scenario(cfg, 11);
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    EXPECT_TRUE(s.candidates(u).empty());
    for (std::size_t bi = 0; bi < s.num_bss(); ++bi) {
      const LinkStats& l = s.link(u, BsId{static_cast<std::uint32_t>(bi)});
      EXPECT_FALSE(l.in_coverage);
      EXPECT_EQ(l.n_rrbs, 0u);
      EXPECT_EQ(l.sinr, 0.0);
      EXPECT_EQ(l.rrb_rate_bps, 0.0);
    }
  }
}

}  // namespace
}  // namespace dmra
