// Property-based differential suite for the SIMD lane-block campaign paths
// (sim/lane_block.hpp, sim/wide_sim.hpp, sim/wide_runner.hpp, the
// CampaignEngine width dispatch): every lane width (64 / 256 / 512) must be
// bit-identical to the flat 64-lane run_campaign() reference on seeded
// random circuits and on the MAC / pipeline cores, across every thread
// count — the block width is a pure cost knob. Also covers
// tail-block masking (injection totals that only partially fill the last
// block), the knob-validation fallback (requests wider than the host's
// native width fall back with a recorded warning) and the CPUID dispatch
// helpers themselves. The relay-core width differential lives in
// test_relay_core.cpp under the "scale" label.
//
// The native width is pinned with force_native_lane_width_for_testing() so
// the assertions hold on any host: the vector-extension kernels are
// ISA-portable (GCC lowers them to whatever the build arch offers), only
// their speed varies, so forcing a width wider than the real CPU is safe.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "circuits/pipeline_core.hpp"
#include "circuits/random_circuit.hpp"
#include "fault/campaign.hpp"
#include "fault/engine.hpp"
#include "sim/lane_block.hpp"
#include "sim/runner.hpp"
#include "util/rng.hpp"

namespace ffr::fault {
namespace {

constexpr sim::LaneWidth kAllWidths[] = {
    sim::LaneWidth::k64, sim::LaneWidth::k256, sim::LaneWidth::k512};

/// RAII pin of the detected native lane width; restores real CPU detection
/// on scope exit so tests cannot leak a forced width into each other.
struct ForcedNativeWidth {
  explicit ForcedNativeWidth(sim::LaneWidth width) {
    sim::force_native_lane_width_for_testing(width);
  }
  ~ForcedNativeWidth() {
    sim::force_native_lane_width_for_testing(sim::LaneWidth::kAuto);
  }
  ForcedNativeWidth(const ForcedNativeWidth&) = delete;
  ForcedNativeWidth& operator=(const ForcedNativeWidth&) = delete;
};

/// The engine's pass accounting must be internally consistent and must match
/// the deterministic schedule planner for the resolved (width, blocks) shape
/// over the injections it simulated (the proven ones get no lane, and the
/// collapsed ones share their representative's).
void expect_schedule_consistent(const CampaignResult& result,
                                const std::string& label) {
  const std::size_t width =
      result.lanes_per_pass / std::max<std::size_t>(1, result.blocks_per_pass);
  const std::vector<PlannedPass> schedule = build_pass_schedule(
      result.total_injections - result.proven_injections -
          result.collapsed_injections,
      width, result.blocks_per_pass);
  EXPECT_EQ(result.total_sim_passes, schedule.size()) << label;
  std::uint64_t histogram_passes = 0;
  for (const PassShapeCount& shape : result.pass_histogram) {
    EXPECT_EQ(shape.width, width) << label << ": one lane width per campaign";
    histogram_passes += shape.passes;
  }
  EXPECT_EQ(histogram_passes, result.total_sim_passes) << label;
}

void expect_bit_identical(const CampaignResult& a, const CampaignResult& b,
                          const std::string& label) {
  ASSERT_EQ(a.per_ff.size(), b.per_ff.size()) << label;
  for (std::size_t i = 0; i < a.per_ff.size(); ++i) {
    EXPECT_EQ(a.per_ff[i].ff_index, b.per_ff[i].ff_index) << label << " ff " << i;
    EXPECT_EQ(a.per_ff[i].injections, b.per_ff[i].injections)
        << label << " ff " << i;
    EXPECT_EQ(a.per_ff[i].classes.counts, b.per_ff[i].classes.counts)
        << label << " ff " << i << " (" << a.per_ff[i].name << ")";
  }
  const auto fdr_a = a.fdr_vector();
  const auto fdr_b = b.fdr_vector();
  ASSERT_EQ(fdr_a.size(), fdr_b.size()) << label;
  for (std::size_t i = 0; i < fdr_a.size(); ++i) {
    // Bit-exact, not approximately equal: both sides divide identical
    // integer counts.
    EXPECT_EQ(fdr_a[i], fdr_b[i]) << label << " ff " << i;
  }
  EXPECT_EQ(a.total_injections, b.total_injections) << label;
}

std::string case_label(sim::LaneWidth width, std::size_t threads) {
  return std::string("width=") + sim::to_string(width) +
         " threads=" + std::to_string(threads);
}

// ---- synthetic testbench over random netlists -----------------------------------
//
// build_random_circuit() emits a bare netlist, so the suite synthesizes its
// own workload: random primary-input waveforms, one registered loopback and
// a packet monitor wired to twelve primary outputs (valid/sop/eop/err plus
// 8 data bits). The monitored "frames" are whatever the random logic
// produces — meaningless as packets, but both campaign implementations
// classify the identical stream, which is all a differential test needs.

constexpr std::size_t kRandomBenchCycles = 48;

circuits::RandomCircuitConfig random_config_for_seed(std::uint64_t seed) {
  circuits::RandomCircuitConfig config;
  config.seed = seed;
  config.num_inputs = 3 + seed % 4;
  config.num_outputs = 12;  // monitor needs valid/sop/eop/err + 8 data nets
  config.num_gates = 30 + 11 * (seed % 6);
  config.num_flip_flops = 4 + seed % 9;
  return config;
}

sim::Testbench make_random_testbench(const netlist::Netlist& nl,
                                     std::uint64_t seed) {
  sim::Testbench tb;
  tb.stimulus = sim::Stimulus(nl.primary_inputs().size(), kRandomBenchCycles);
  util::Rng rng(seed * 1013 + 17);
  for (std::size_t pi = 0; pi < nl.primary_inputs().size(); ++pi) {
    for (std::size_t cycle = 0; cycle < kRandomBenchCycles; ++cycle) {
      tb.stimulus.set(pi, cycle, rng.bernoulli(0.5));
    }
  }
  const auto& pos = nl.primary_outputs();
  tb.monitor.valid = pos[0];
  tb.monitor.sop = pos[1];
  tb.monitor.eop = pos[2];
  tb.monitor.err = pos[3];
  tb.monitor.data.assign(pos.begin() + 4, pos.begin() + 12);
  // One registered loopback so the wide runner's loopback capture/apply path
  // is exercised on every random shape.
  tb.loopbacks.push_back({pos[0], nl.primary_inputs()[0], false});
  tb.inject_begin = 2;
  tb.inject_end = kRandomBenchCycles - 4;
  return tb;
}

// ---- random-circuit sweep: every width x thread count ---------------------------

class RandomLaneWidthSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomLaneWidthSweep, AllWidthsMatchFlatReference) {
  const ForcedNativeWidth pin(sim::LaneWidth::k512);
  const netlist::Netlist nl =
      circuits::build_random_circuit(random_config_for_seed(GetParam()));
  const sim::Testbench tb = make_random_testbench(nl, GetParam());
  CampaignEngine engine(nl, tb);

  CampaignConfig base;
  base.injections_per_ff = 131;  // not a lane-count multiple: ragged tails
  base.seed = 0xBEEF + GetParam();

  const CampaignResult flat = run_campaign(nl, tb, engine.golden(), base);

  for (const sim::LaneWidth width : kAllWidths) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      CampaignConfig config = base;
      config.lane_width = width;
      config.num_threads = threads;
      const CampaignResult result = engine.run(config);
      const std::string label = case_label(width, threads);
      EXPECT_EQ(result.lanes_per_pass,
                sim::lanes_of(width) * result.blocks_per_pass)
          << label;
      if (width == sim::LaneWidth::k64) {
        // Auto blocks never widen the scalar reference path.
        EXPECT_EQ(result.blocks_per_pass, 1u) << label;
      }
      EXPECT_TRUE(result.warnings.empty()) << label;
      expect_schedule_consistent(result, label);
      expect_bit_identical(flat, result, label);
    }
  }
}

TEST_P(RandomLaneWidthSweep, CollapsedShapesMatchFlatReference) {
  // The two shapes campaigns run at, 64x1 and 512x2: one lane per
  // representative, the same science. Random logic driven by random inputs
  // rarely holds a flip, so twice as many injections as window cycles make
  // sure repeated cycles collapse too.
  const ForcedNativeWidth pin(sim::LaneWidth::k512);
  const netlist::Netlist nl =
      circuits::build_random_circuit(random_config_for_seed(GetParam()));
  const sim::Testbench tb = make_random_testbench(nl, GetParam());
  CampaignEngine engine(nl, tb);
  CampaignConfig base;
  base.injections_per_ff = 2 * (tb.inject_end - tb.inject_begin);
  base.seed = 0xC0DE + GetParam();
  const CampaignResult flat = run_campaign(nl, tb, engine.golden(), base);
  for (const auto& [width, blocks] :
       {std::pair{sim::LaneWidth::k64, std::size_t{1}},
        std::pair{sim::LaneWidth::k512, std::size_t{2}}}) {
    CampaignConfig config = base;
    config.lane_width = width;
    config.blocks_per_pass = blocks;
    const CampaignResult result = engine.run(config);
    const std::string label = case_label(width, 0) + " blocks=" + std::to_string(blocks);
    if (result.proven_injections == result.total_injections) {
      // Some seeds' flip-flops can never reach the monitor.
      EXPECT_EQ(result.total_sim_passes, 0u) << label << ": nothing to simulate";
    } else {
      EXPECT_GT(result.collapsed_injections, 0u) << label;
    }
    expect_schedule_consistent(result, label);
    expect_bit_identical(flat, result, label);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLaneWidthSweep,
                         ::testing::Range<std::uint64_t>(1, 7));

// ---- MAC core: the paper's circuit ----------------------------------------------

struct MacLaneWidthFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    circuits::MacConfig mc;
    mc.tx_depth_log2 = 3;
    mc.rx_depth_log2 = 3;
    mac = new circuits::MacCore(circuits::build_mac_core(mc));
    circuits::MacTestbenchConfig tbc;
    tbc.num_frames = 3;
    tbc.min_payload = 8;
    tbc.max_payload = 16;
    tbc.seed = 5;
    bench = new circuits::MacTestbench(circuits::build_mac_testbench(*mac, tbc));
    engine = new CampaignEngine(mac->netlist, bench->tb);
  }
  static void TearDownTestSuite() {
    delete engine;
    engine = nullptr;
    delete bench;
    bench = nullptr;
    delete mac;
    mac = nullptr;
  }
  static circuits::MacCore* mac;
  static circuits::MacTestbench* bench;
  static CampaignEngine* engine;
};

circuits::MacCore* MacLaneWidthFixture::mac = nullptr;
circuits::MacTestbench* MacLaneWidthFixture::bench = nullptr;
CampaignEngine* MacLaneWidthFixture::engine = nullptr;

TEST_F(MacLaneWidthFixture, AllWidthsMatchFlat) {
  const ForcedNativeWidth pin(sim::LaneWidth::k512);
  CampaignConfig base;
  base.injections_per_ff = 24;
  for (std::size_t i = 0; i < mac->netlist.num_flip_flops(); i += 7) {
    base.ff_subset.push_back(i);
  }
  const CampaignResult flat =
      run_campaign(mac->netlist, bench->tb, engine->golden(), base);
  for (const sim::LaneWidth width : kAllWidths) {
    CampaignConfig config = base;
    config.lane_width = width;
    const CampaignResult result = engine->run(config);
    const std::string label = case_label(width, 0);
    EXPECT_EQ(result.lanes_per_pass,
              sim::lanes_of(width) * result.blocks_per_pass)
        << label;
    expect_schedule_consistent(result, label);
    expect_bit_identical(flat, result, label);
  }
}

TEST_F(MacLaneWidthFixture, PinnedCountersAt64x1) {
  // The 64x1 shape's deterministic cost counters at the engine's 16-cycle
  // checkpoint interval, as literals: a change of executor must reproduce
  // the same passes, cycles, op evaluations and restores. FF-block ticks
  // may only fall below a full tick of every flip-flop on every simulated
  // cycle. Of the 1960 injections, 1437 need no lane (unobservable, or
  // chained by hold links to a masked cycle) and 150 share a
  // representative's, so 373 lanes fill 6 passes.
  ASSERT_EQ(engine->checkpoints().interval, 16u);
  CampaignConfig config;
  config.injections_per_ff = 40;
  config.lane_width = sim::LaneWidth::k64;
  for (std::size_t i = 0; i < mac->netlist.num_flip_flops(); i += 9) {
    config.ff_subset.push_back(i);
  }
  const CampaignResult result = engine->run(config);
  EXPECT_EQ(result.lanes_per_pass, 64u);
  EXPECT_EQ(result.blocks_per_pass, 1u);
  EXPECT_EQ(result.proven_injections, 1437u);
  EXPECT_EQ(result.collapsed_injections, 150u);
  EXPECT_EQ(result.total_sim_passes, 6u);
  EXPECT_EQ(result.cycles_simulated, 1206u);
  EXPECT_EQ(result.ops_evaluated, 487701u);
  EXPECT_EQ(result.op_block_evals, 487701u);
  EXPECT_EQ(result.checkpoint_restores, 5u);
  EXPECT_LE(result.ff_block_ticks,
            result.cycles_simulated * mac->netlist.num_flip_flops());
}

TEST_F(MacLaneWidthFixture, TailBlockMaskingAt512) {
  // 600 injections into one flip-flop at a single 512-lane block: the hold
  // links leave 30 representatives (412 injections proven, 158 collapsed),
  // one pass with 482 idle lanes in its live block. Idle lanes must not
  // perturb the live ones.
  const ForcedNativeWidth pin(sim::LaneWidth::k512);
  CampaignConfig config;
  config.injections_per_ff = 600;
  config.ff_subset = {11};
  const CampaignResult flat =
      run_campaign(mac->netlist, bench->tb, engine->golden(), config);
  config.lane_width = sim::LaneWidth::k512;
  config.blocks_per_pass = 1;
  const CampaignResult wide = engine->run(config);
  EXPECT_EQ(wide.total_injections, 600u);
  EXPECT_EQ(wide.proven_injections, 412u);
  EXPECT_EQ(wide.collapsed_injections, 158u);
  EXPECT_EQ(wide.total_sim_passes, 1u);
  ASSERT_EQ(wide.pass_histogram.size(), 1u);
  EXPECT_EQ(wide.pass_histogram[0].width, 512u);
  EXPECT_EQ(wide.pass_histogram[0].blocks, 1u);
  EXPECT_EQ(wide.pass_histogram[0].passes, 1u);
  EXPECT_EQ(flat.total_sim_passes, 10u);  // ceil(600 / 64)
  expect_bit_identical(flat, wide, "tail-block 600@512");
}

TEST_F(MacLaneWidthFixture, TailBlockMaskingAt256) {
  // 257 injections into one flip-flop: the hold links leave 114
  // representatives (143 collapsed, none proven), one 256-lane pass with
  // 142 idle lanes.
  const ForcedNativeWidth pin(sim::LaneWidth::k512);
  CampaignConfig config;
  config.injections_per_ff = 257;
  config.ff_subset = {4};
  const CampaignResult flat =
      run_campaign(mac->netlist, bench->tb, engine->golden(), config);
  config.lane_width = sim::LaneWidth::k256;
  config.blocks_per_pass = 1;
  const CampaignResult wide = engine->run(config);
  EXPECT_EQ(wide.proven_injections, 0u);
  EXPECT_EQ(wide.collapsed_injections, 143u);
  EXPECT_EQ(wide.total_sim_passes, 1u);
  ASSERT_EQ(wide.pass_histogram.size(), 1u);
  EXPECT_EQ(wide.pass_histogram[0].width, 256u);
  EXPECT_EQ(wide.pass_histogram[0].blocks, 1u);
  EXPECT_EQ(wide.pass_histogram[0].passes, 1u);
  expect_bit_identical(flat, wide, "tail-block 257@256");
}

// ---- multi-block passes: blocks_per_pass sweeps with ragged tails ---------------

TEST_F(MacLaneWidthFixture, MultiBlockRaggedTailsMatchFlat) {
  // Every SIMD width x explicit block count (including the non-power-of-two
  // 3), at an injection total that leaves a ragged multi-word tail — all bit-identical to the flat reference, with the engine's pass
  // accounting matching the deterministic planner.
  const ForcedNativeWidth pin(sim::LaneWidth::k512);
  CampaignConfig base;
  base.injections_per_ff = 90;  // 5 FFs x 90 = 450 jobs: ragged everywhere
  base.ff_subset = {0, 3, 7, 12, 19};
  const CampaignResult flat =
      run_campaign(mac->netlist, bench->tb, engine->golden(), base);
  for (const sim::LaneWidth width : kAllWidths) {
    for (const std::size_t blocks :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      CampaignConfig config = base;
      config.lane_width = width;
      config.blocks_per_pass = blocks;
      const CampaignResult result = engine->run(config);
      const std::string label =
          case_label(width, 0) + " blocks=" + std::to_string(blocks);
      EXPECT_EQ(result.blocks_per_pass, blocks) << label;
      EXPECT_EQ(result.lanes_per_pass, sim::lanes_of(width) * blocks)
          << label;
      EXPECT_TRUE(result.warnings.empty()) << label;
      expect_schedule_consistent(result, label);
      expect_bit_identical(flat, result, label);
    }
  }
}

TEST_F(MacLaneWidthFixture, BlocksBeyondMaximumClampWithWarning) {
  const ForcedNativeWidth pin(sim::LaneWidth::k256);
  CampaignConfig config;
  config.injections_per_ff = 20;
  config.ff_subset = {1, 6};
  const CampaignResult flat =
      run_campaign(mac->netlist, bench->tb, engine->golden(), config);
  config.lane_width = sim::LaneWidth::k256;
  config.blocks_per_pass = sim::kMaxLaneBlocksPerPass + 5;
  const CampaignResult result = engine->run(config);
  EXPECT_EQ(result.blocks_per_pass, sim::kMaxLaneBlocksPerPass);
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_NE(result.warnings[0].find("clamped"), std::string::npos)
      << result.warnings[0];
  expect_bit_identical(flat, result, "clamped blocks");
}

// ---- knob validation: requests wider than the host fall back --------------------

TEST_F(MacLaneWidthFixture, WiderThanHostFallsBackWithWarning) {
  const ForcedNativeWidth pin(sim::LaneWidth::k64);
  CampaignConfig config;
  config.injections_per_ff = 20;
  config.ff_subset = {0, 5, 9};
  const CampaignResult flat =
      run_campaign(mac->netlist, bench->tb, engine->golden(), config);
  for (const sim::LaneWidth requested :
       {sim::LaneWidth::k256, sim::LaneWidth::k512}) {
    CampaignConfig wide = config;
    wide.lane_width = requested;
    const CampaignResult result = engine->run(wide);
    const std::string label = std::string("requested ") + sim::to_string(requested);
    EXPECT_EQ(result.lanes_per_pass, 64u) << label;
    ASSERT_EQ(result.warnings.size(), 1u) << label;
    EXPECT_NE(result.warnings[0].find(sim::to_string(requested)),
              std::string::npos)
        << label << ": " << result.warnings[0];
    EXPECT_NE(result.warnings[0].find("falling back"), std::string::npos)
        << label << ": " << result.warnings[0];
    expect_bit_identical(flat, result, label);
  }
}

TEST_F(MacLaneWidthFixture, HonouredRequestsCarryNoWarning) {
  const ForcedNativeWidth pin(sim::LaneWidth::k256);
  CampaignConfig config;
  config.injections_per_ff = 12;
  config.ff_subset = {2, 8};
  for (const sim::LaneWidth requested :
       {sim::LaneWidth::kAuto, sim::LaneWidth::k64, sim::LaneWidth::k256}) {
    config.lane_width = requested;
    const CampaignResult result = engine->run(config);
    // kAuto resolves to the pinned native 256; lanes_per_pass additionally
    // carries the auto-resolved block count (1 on the 64-lane path).
    const std::size_t expected_width =
        requested == sim::LaneWidth::k64 ? 64u : 256u;
    if (requested == sim::LaneWidth::k64) {
      EXPECT_EQ(result.blocks_per_pass, 1u) << sim::to_string(requested);
    }
    EXPECT_EQ(result.lanes_per_pass, expected_width * result.blocks_per_pass)
        << sim::to_string(requested);
    EXPECT_TRUE(result.warnings.empty()) << sim::to_string(requested);
  }
}

// ---- the deterministic pass planner itself --------------------------------------

TEST(BuildPassSchedule, FullPassesThenOneTailSizedToItsJobs) {
  // Every pass runs at the campaign's width: the passes tile the job list
  // contiguously, every pass but the last is full, and the last carries
  // ceil(rest / width) blocks. At 64x1 that is exactly ceil(jobs / 64)
  // single-block passes, so the pinned 64x1 pass counts never move.
  for (const std::size_t width : {64u, 256u, 512u}) {
    for (const std::size_t blocks : {1u, 2u, 3u, 8u}) {
      for (const std::size_t jobs :
           {0u, 1u, 63u, 64u, 65u, 70u, 257u, 600u, 1023u, 1100u, 4097u,
            179180u}) {
        const auto schedule = build_pass_schedule(jobs, width, blocks);
        const std::string label = std::to_string(jobs) + " jobs @ " +
                                  std::to_string(width) + "x" +
                                  std::to_string(blocks);
        const std::size_t capacity = width * blocks;
        ASSERT_EQ(schedule.size(), (jobs + capacity - 1) / capacity) << label;
        std::size_t cursor = 0;
        for (std::size_t p = 0; p < schedule.size(); ++p) {
          const PlannedPass& pass = schedule[p];
          EXPECT_EQ(pass.job_begin, cursor) << label << " pass " << p;
          const std::size_t live = pass.job_end - pass.job_begin;
          if (p + 1 < schedule.size()) {
            EXPECT_EQ(live, capacity) << label << " pass " << p;
            EXPECT_EQ(pass.blocks, blocks) << label << " pass " << p;
          } else {
            EXPECT_GT(live, 0u) << label;
            EXPECT_EQ(live, jobs - cursor) << label;
            EXPECT_EQ(pass.blocks, (live + width - 1) / width) << label;
          }
          cursor = pass.job_end;
        }
        EXPECT_EQ(cursor, jobs) << label;
      }
    }
  }
  EXPECT_THROW((void)build_pass_schedule(10, 0, 1), std::invalid_argument);
  EXPECT_THROW((void)build_pass_schedule(10, 64, 0), std::invalid_argument);
}

// ---- pipeline core --------------------------------------------------------------

TEST(PipelineLaneWidth, AllWidthsMatchFlat) {
  const ForcedNativeWidth pin(sim::LaneWidth::k512);
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core);
  CampaignEngine engine(core.netlist, bench.tb);
  CampaignConfig base;
  base.injections_per_ff = 18;
  const CampaignResult flat =
      run_campaign(core.netlist, bench.tb, engine.golden(), base);
  for (const sim::LaneWidth width : kAllWidths) {
    CampaignConfig config = base;
    config.lane_width = width;
    const CampaignResult result = engine.run(config);
    expect_bit_identical(flat, result, case_label(width, 0));
  }
}

// ---- dispatch helpers -----------------------------------------------------------

TEST(LaneWidthDispatch, NativeDetectionIsSane) {
  // No forcing: whatever CPUID reports must be one of the three real widths,
  // and kAuto must resolve to it without a warning.
  const sim::LaneWidth native = sim::native_lane_width();
  EXPECT_TRUE(native == sim::LaneWidth::k64 || native == sim::LaneWidth::k256 ||
              native == sim::LaneWidth::k512);
  const sim::ResolvedLaneWidth resolved =
      sim::resolve_lane_width(sim::LaneWidth::kAuto);
  EXPECT_EQ(resolved.width, native);
  EXPECT_TRUE(resolved.warning.empty());
}

TEST(LaneWidthDispatch, ForcedWidthOverridesAndRestores) {
  {
    const ForcedNativeWidth pin(sim::LaneWidth::k256);
    EXPECT_EQ(sim::native_lane_width(), sim::LaneWidth::k256);
    EXPECT_EQ(sim::resolve_lane_width(sim::LaneWidth::k512).width,
              sim::LaneWidth::k256);
    EXPECT_FALSE(
        sim::resolve_lane_width(sim::LaneWidth::k512).warning.empty());
  }
  // Guard destroyed: real detection is back.
  EXPECT_EQ(sim::native_lane_width(), sim::native_lane_width());
  EXPECT_TRUE(sim::resolve_lane_width(sim::LaneWidth::kAuto).warning.empty());
}

TEST(LaneWidthDispatch, LanesOfAndToString) {
  EXPECT_EQ(sim::lanes_of(sim::LaneWidth::k64), 64u);
  EXPECT_EQ(sim::lanes_of(sim::LaneWidth::k256), 256u);
  EXPECT_EQ(sim::lanes_of(sim::LaneWidth::k512), 512u);
  EXPECT_EQ(sim::lanes_of(sim::LaneWidth::kAuto), 0u);
  EXPECT_STREQ(sim::to_string(sim::LaneWidth::k512), "512");
  EXPECT_STREQ(sim::to_string(sim::LaneWidth::kAuto), "auto");
}

}  // namespace
}  // namespace ffr::fault
