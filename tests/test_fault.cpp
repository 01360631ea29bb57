// Tests for src/fault: failure classification semantics and the statistical
// campaign (determinism, FDR plausibility on the MAC core).

#include <gtest/gtest.h>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "fault/campaign.hpp"
#include "fault/classification.hpp"
#include "linalg/matrix.hpp"

namespace ffr::fault {
namespace {

sim::Frame frame(std::initializer_list<std::uint8_t> bytes, bool err = false) {
  sim::Frame f;
  f.bytes = bytes;
  f.err = err;
  return f;
}

TEST(Classification, IdenticalStreamsAreOk) {
  const sim::FrameList golden = {frame({1, 2, 3}), frame({4, 5})};
  EXPECT_EQ(classify(golden, golden), FailureClass::kOk);
}

TEST(Classification, TimingShiftIsBenign) {
  sim::FrameList golden = {frame({1, 2, 3})};
  sim::FrameList observed = {frame({1, 2, 3})};
  golden[0].end_cycle = 100;
  observed[0].end_cycle = 140;  // later but intact
  EXPECT_EQ(classify(golden, observed), FailureClass::kOk);
}

TEST(Classification, MissingFrameIsFrameLoss) {
  const sim::FrameList golden = {frame({1}), frame({2})};
  const sim::FrameList observed = {frame({1})};
  EXPECT_EQ(classify(golden, observed), FailureClass::kFrameLoss);
}

TEST(Classification, ExtraFrameIsSpurious) {
  const sim::FrameList golden = {frame({1})};
  const sim::FrameList observed = {frame({1}), frame({9})};
  EXPECT_EQ(classify(golden, observed), FailureClass::kSpuriousFrame);
}

TEST(Classification, ByteDifferenceIsPayloadCorruption) {
  const sim::FrameList golden = {frame({1, 2, 3})};
  const sim::FrameList observed = {frame({1, 9, 3})};
  EXPECT_EQ(classify(golden, observed), FailureClass::kPayloadCorruption);
}

TEST(Classification, ErrorFlagIsDetectedError) {
  const sim::FrameList golden = {frame({1, 2, 3})};
  const sim::FrameList observed = {frame({1, 2, 3}, true)};
  EXPECT_EQ(classify(golden, observed), FailureClass::kDetectedError);
}

TEST(Classification, SilentCorruptionOutranksDetectedError) {
  const sim::FrameList golden = {frame({1}), frame({2})};
  const sim::FrameList observed = {frame({9}), frame({2}, true)};
  EXPECT_EQ(classify(golden, observed), FailureClass::kPayloadCorruption);
}

TEST(Classification, EveryNonOkClassIsFunctionalFailure) {
  EXPECT_FALSE(is_functional_failure(FailureClass::kOk));
  EXPECT_TRUE(is_functional_failure(FailureClass::kFrameLoss));
  EXPECT_TRUE(is_functional_failure(FailureClass::kSpuriousFrame));
  EXPECT_TRUE(is_functional_failure(FailureClass::kPayloadCorruption));
  EXPECT_TRUE(is_functional_failure(FailureClass::kDetectedError));
}

TEST(ClassCounts, TotalsAndFailures) {
  ClassCounts counts;
  counts.add(FailureClass::kOk);
  counts.add(FailureClass::kOk);
  counts.add(FailureClass::kFrameLoss);
  counts.add(FailureClass::kPayloadCorruption);
  EXPECT_EQ(counts.total(), 4u);
  EXPECT_EQ(counts.failures(), 2u);
}

// ---- campaign on the (small) MAC core ------------------------------------------

struct CampaignFixture : public ::testing::Test {
  void SetUp() override {
    circuits::MacConfig mc;
    mc.tx_depth_log2 = 3;
    mc.rx_depth_log2 = 3;
    mac = circuits::build_mac_core(mc);
    circuits::MacTestbenchConfig tbc;
    tbc.num_frames = 3;
    tbc.min_payload = 8;
    tbc.max_payload = 16;
    tbc.seed = 5;
    bench = circuits::build_mac_testbench(mac, tbc);
    golden = sim::run_golden(mac.netlist, bench.tb);
  }
  circuits::MacCore mac;
  circuits::MacTestbench bench;
  sim::GoldenResult golden;
};

TEST_F(CampaignFixture, SubsetCampaignProducesPlausibleFdr) {
  CampaignConfig config;
  config.injections_per_ff = 32;
  config.ff_subset = {0, 5, 10, 50, 100};
  const CampaignResult result = run_campaign(mac.netlist, bench.tb, golden, config);
  ASSERT_EQ(result.per_ff.size(), 5u);
  EXPECT_EQ(result.total_injections, 5u * 32u);
  for (const FfResult& ff : result.per_ff) {
    EXPECT_GE(ff.fdr(), 0.0);
    EXPECT_LE(ff.fdr(), 1.0);
    EXPECT_EQ(ff.classes.total(), 32u);
  }
}

TEST_F(CampaignFixture, DeterministicForSameSeed) {
  CampaignConfig config;
  config.injections_per_ff = 16;
  config.ff_subset = {1, 2, 3, 40, 80, 120};
  const CampaignResult a = run_campaign(mac.netlist, bench.tb, golden, config);
  const CampaignResult b = run_campaign(mac.netlist, bench.tb, golden, config);
  ASSERT_EQ(a.per_ff.size(), b.per_ff.size());
  for (std::size_t i = 0; i < a.per_ff.size(); ++i) {
    EXPECT_EQ(a.per_ff[i].classes.counts, b.per_ff[i].classes.counts);
  }
}

TEST_F(CampaignFixture, SubsetOrderIndependent) {
  // The same flip-flop must get the same injection schedule regardless of
  // where it sits in the subset list.
  CampaignConfig config;
  config.injections_per_ff = 16;
  config.ff_subset = {7, 90};
  const CampaignResult a = run_campaign(mac.netlist, bench.tb, golden, config);
  config.ff_subset = {90, 7, 33};
  const CampaignResult b = run_campaign(mac.netlist, bench.tb, golden, config);
  EXPECT_EQ(a.per_ff[0].classes.counts, b.per_ff[1].classes.counts);  // ff 7
  EXPECT_EQ(a.per_ff[1].classes.counts, b.per_ff[0].classes.counts);  // ff 90
}

TEST_F(CampaignFixture, FdrSpreadCoversBenignAndCritical) {
  // Run over a sample of flip-flops; the MAC must exhibit both ~0 FDR
  // (BIST/config) and substantial FDR (pointers/FSM) instances.
  CampaignConfig config;
  config.injections_per_ff = 24;
  for (std::size_t i = 0; i < mac.netlist.num_flip_flops(); i += 7) {
    config.ff_subset.push_back(i);
  }
  const CampaignResult result = run_campaign(mac.netlist, bench.tb, golden, config);
  const auto fdr = result.fdr_vector();
  EXPECT_LT(ffr::linalg::min_value(fdr), 0.05);
  EXPECT_GT(ffr::linalg::max_value(fdr), 0.5);
  EXPECT_GT(result.mean_fdr(), 0.01);
  EXPECT_LT(result.mean_fdr(), 0.9);
}

TEST_F(CampaignFixture, EmptyWindowRejected) {
  sim::Testbench bad = bench.tb;
  bad.inject_end = bad.inject_begin;
  CampaignConfig config;
  EXPECT_THROW((void)run_campaign(mac.netlist, bad, golden, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace ffr::fault
