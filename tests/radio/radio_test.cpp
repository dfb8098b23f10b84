#include <gtest/gtest.h>

#include <cmath>

#include "radio/channel.hpp"
#include "radio/ofdma.hpp"
#include "radio/units.hpp"
#include "util/require.hpp"

namespace dmra {
namespace {

// ---- units -----------------------------------------------------------------

TEST(Units, DbmMwRoundTrip) {
  EXPECT_DOUBLE_EQ(dbm_to_mw(0.0), 1.0);
  EXPECT_DOUBLE_EQ(dbm_to_mw(10.0), 10.0);
  EXPECT_NEAR(mw_to_dbm(dbm_to_mw(-93.7)), -93.7, 1e-9);
}

TEST(Units, DbLinearRoundTrip) {
  EXPECT_DOUBLE_EQ(db_to_linear(0.0), 1.0);
  EXPECT_DOUBLE_EQ(db_to_linear(30.0), 1000.0);
  EXPECT_NEAR(linear_to_db(db_to_linear(17.3)), 17.3, 1e-9);
}

TEST(Units, Contracts) {
  EXPECT_THROW(mw_to_dbm(0.0), ContractViolation);
  EXPECT_THROW(linear_to_db(-1.0), ContractViolation);
}

// ---- path loss (Eq. 18) -----------------------------------------------------

TEST(Pathloss, PaperFormulaAtOneKm) {
  // PL(1 km) = 140.7 + 36.7·log10(1) = 140.7 dB.
  EXPECT_NEAR(pathloss_db(1000.0), 140.7, 1e-9);
}

TEST(Pathloss, SlopePerDecade) {
  EXPECT_NEAR(pathloss_db(1000.0) - pathloss_db(100.0), 36.7, 1e-9);
}

TEST(Pathloss, ClampsBelowMinDistance) {
  EXPECT_DOUBLE_EQ(pathloss_db(0.0, 1.0), pathloss_db(1.0, 1.0));
  EXPECT_DOUBLE_EQ(pathloss_db(0.5, 1.0), pathloss_db(1.0, 1.0));
  EXPECT_LT(pathloss_db(0.5, 1.0), pathloss_db(2.0, 1.0));
}

TEST(Pathloss, Contracts) {
  EXPECT_THROW(pathloss_db(-1.0), ContractViolation);
  EXPECT_THROW(pathloss_db(10.0, 0.0), ContractViolation);
}

// ---- SINR -------------------------------------------------------------------

TEST(Sinr, DecreasesWithDistance) {
  const ChannelConfig cfg;
  const double near = sinr(cfg, 100.0, 180e3);
  const double mid = sinr(cfg, 300.0, 180e3);
  const double far = sinr(cfg, 500.0, 180e3);
  EXPECT_GT(near, mid);
  EXPECT_GT(mid, far);
}

TEST(Sinr, PaperDefaultMagnitudeAt100m) {
  // Rx = 10 dBm − (140.7 + 36.7·log10(0.1)) = −94 dBm; noise −170 dBm
  // per RRB → SNR = 76 dB.
  const ChannelConfig cfg;
  EXPECT_NEAR(linear_to_db(sinr(cfg, 100.0, 180e3)), 76.0, 1e-6);
}

TEST(Sinr, PsdModelIntegratesNoiseOverBandwidth) {
  ChannelConfig psd;
  psd.noise_model = NoiseModel::kPsd;
  const ChannelConfig total;  // default: per-RRB total
  // −170 dBm/Hz over 180 kHz is 52.6 dB more noise than −170 dBm total.
  const double ratio_db =
      linear_to_db(sinr(total, 200.0, 180e3) / sinr(psd, 200.0, 180e3));
  EXPECT_NEAR(ratio_db, 10.0 * std::log10(180e3), 1e-6);
}

TEST(Sinr, InterferenceReducesSinr) {
  ChannelConfig cfg;
  const double clean = sinr(cfg, 200.0, 180e3);
  cfg.interference_psd_mw_hz = 1e-15;
  EXPECT_LT(sinr(cfg, 200.0, 180e3), clean);
}

TEST(Sinr, PointOverloadMatchesScalar) {
  const ChannelConfig cfg;
  EXPECT_DOUBLE_EQ(sinr(cfg, Point{0, 0}, Point{300, 400}, 180e3),
                   sinr(cfg, 500.0, 180e3));
}

TEST(ReceivedPower, MatchesLinkBudget) {
  const ChannelConfig cfg;  // 10 dBm transmit
  const double rx = received_power_mw(cfg, 1000.0);
  EXPECT_NEAR(mw_to_dbm(rx), 10.0 - 140.7, 1e-9);
}

// ---- OFDMA (Eq. 2/3) ----------------------------------------------------------

TEST(Ofdma, PaperRrbCount) {
  // 10 MHz / 180 kHz = 55 RRBs.
  EXPECT_EQ(OfdmaConfig{}.num_rrbs(), 55u);
}

TEST(Ofdma, RrbRateFormula) {
  // e = W·log2(1 + λ): at λ = 3, e = 2·W.
  EXPECT_DOUBLE_EQ(rrb_rate_bps(180e3, 3.0), 2.0 * 180e3);
  EXPECT_DOUBLE_EQ(rrb_rate_bps(180e3, 0.0), 0.0);
}

TEST(Ofdma, RrbsNeededIsCeil) {
  EXPECT_EQ(rrbs_needed(4e6, 2e6), 2u);
  EXPECT_EQ(rrbs_needed(4.1e6, 2e6), 3u);
  EXPECT_EQ(rrbs_needed(1.0, 2e6), 1u);
  // A demand past any BS's RRB count saturates instead of wrapping.
  EXPECT_EQ(rrbs_needed(4294967294.0, 1.0), 4294967294u);
  EXPECT_EQ(rrbs_needed(4294967295.0, 1.0), kUnservableRrbs);
  EXPECT_EQ(rrbs_needed(1e300, 1.0), kUnservableRrbs);
}

TEST(Ofdma, RrbsNeededMonotoneInDemand) {
  const double rate = 3.3e6;
  std::uint32_t prev = 0;
  for (double demand = 1e6; demand <= 2e7; demand += 1e6) {
    const std::uint32_t n = rrbs_needed(demand, rate);
    EXPECT_GE(n, prev);
    prev = n;
  }
}

TEST(Ofdma, Contracts) {
  EXPECT_THROW(rrb_rate_bps(0.0, 1.0), ContractViolation);
  EXPECT_THROW(rrb_rate_bps(180e3, -0.1), ContractViolation);
  EXPECT_THROW(rrbs_needed(0.0, 1e6), ContractViolation);
  EXPECT_THROW(rrbs_needed(1e6, 0.0), ContractViolation);
}

// ---- end-to-end sanity over the paper's deployment ----------------------------

TEST(RadioRegime, PaperDefaultsNeedOneToTwoRrbsInCoverage) {
  // With the default channel, a UE inside the 500 m coverage disk demands
  // 1–3 RRBs for 2–6 Mbit/s — the regime DESIGN.md documents.
  const ChannelConfig ch;
  const OfdmaConfig of;
  for (double d : {50.0, 100.0, 250.0, 400.0, 500.0}) {
    const double e = rrb_rate_bps(of.rrb_bandwidth_hz, sinr(ch, d, of.rrb_bandwidth_hz));
    for (double w : {2e6, 4e6, 6e6}) {
      const std::uint32_t n = rrbs_needed(w, e);
      EXPECT_GE(n, 1u);
      EXPECT_LE(n, 3u) << "d=" << d << " w=" << w;
    }
  }
}

}  // namespace
}  // namespace dmra
