// Smoke tests for the paper-scale relay_core evaluation circuit: flip-flop
// census at/above the paper's 947-FF operating point, clean golden delivery
// through the full FIFO chain, CRC error detection, a small-subset SFI
// campaign (flat vs batched differential) to prove the design is
// campaign-ready, and checkpoint-restore / incremental-replay bit-exactness
// at paper scale. Registered with a CTest TIMEOUT and the "scale" label.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "circuits/relay_core.hpp"
#include "fault/campaign.hpp"
#include "fault/engine.hpp"
#include "fault/shard.hpp"
#include "netlist/verilog_reader.hpp"
#include "netlist/verilog_writer.hpp"
#include "rtl/crc.hpp"
#include "sim/runner.hpp"
#include "sim/testbench.hpp"
#include "sim/wide_runner.hpp"

namespace ffr::circuits {
namespace {

struct RelayFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    core = new RelayCore(build_relay_core());
    bench = new RelayTestbench(build_relay_testbench(*core));
  }
  static void TearDownTestSuite() {
    delete bench;
    bench = nullptr;
    delete core;
    core = nullptr;
  }
  static RelayCore* core;
  static RelayTestbench* bench;
};

RelayCore* RelayFixture::core = nullptr;
RelayTestbench* RelayFixture::bench = nullptr;

TEST_F(RelayFixture, ReachesPaperScale) {
  // The paper's cost argument is stated for a 947-flip-flop circuit; the
  // default relay configuration must meet or exceed that operating point.
  EXPECT_GE(core->netlist.num_flip_flops(), 947u);
}

TEST_F(RelayFixture, EveryFlipFlopIsObservable) {
  // Every relay_core flip-flop has a path to the monitored egress, so the
  // engine proves none of them unobservable and every upset is simulated.
  const sim::ObservableCone cone = sim::observable_cone(core->netlist, bench->tb);
  EXPECT_EQ(core->netlist.num_flip_flops(), 1054u);
  EXPECT_EQ(cone.num_observable_ffs(), 1054u);
}

TEST_F(RelayFixture, GoldenRunDeliversEveryFrameIntact) {
  const sim::GoldenResult golden = sim::run_golden(core->netlist, bench->tb);
  ASSERT_EQ(golden.frames.size(), bench->sent_frames.size());
  for (std::size_t f = 0; f < golden.frames.size(); ++f) {
    EXPECT_EQ(golden.frames[f].bytes, bench->sent_frames[f]) << "frame " << f;
    EXPECT_FALSE(golden.frames[f].err) << "frame " << f;
  }
}

TEST_F(RelayFixture, CorruptedPayloadRaisesCrcError) {
  // Flip one bit of a payload byte mid-flight: the frame must still arrive
  // (same entry count) but with the CRC error flag raised on its eop entry.
  const sim::GoldenResult golden = sim::run_golden(core->netlist, bench->tb);
  // Target a data bit of the first hop's storage while the first frame's
  // bytes are in flight; storage slot 1 bit 0 holds a payload byte then.
  const auto slot_cell = core->netlist.find_cell("hop0_mem1[0]");
  ASSERT_TRUE(slot_cell.has_value());
  sim::InjectionEvent ev;
  ev.ff_cell = *slot_cell;
  ev.cycle = 4;  // first frame occupies the ingress FIFO around this cycle
  ev.lane_mask = 1;
  const sim::InjectionEvent events[] = {ev};
  const sim::RunResult faulty =
      sim::run_testbench(core->netlist, bench->tb, events);
  const sim::FrameList& frames = faulty.lane_frames[0];
  ASSERT_FALSE(frames.empty());
  bool any_difference = false;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const bool matches_golden = f < golden.frames.size() &&
                                frames[f].bytes == golden.frames[f].bytes &&
                                frames[f].err == golden.frames[f].err;
    if (!matches_golden) any_difference = true;
    if (frames[f].bytes != (f < golden.frames.size() ? golden.frames[f].bytes
                                                     : frames[f].bytes)) {
      EXPECT_TRUE(frames[f].err)
          << "corrupted frame " << f << " must fail the CRC check";
    }
  }
  EXPECT_TRUE(any_difference) << "injection into live storage had no effect";
}

TEST_F(RelayFixture, SmallSubsetCampaignCompletes) {
  fault::CampaignEngine engine(core->netlist, bench->tb);
  fault::CampaignConfig config;
  config.injections_per_ff = 16;
  // Pin the scalar width: the pass-count assertion below is 64-lane packing
  // arithmetic (kAuto would pick a wider block on SIMD hosts).
  config.lane_width = sim::LaneWidth::k64;
  // A spread of flip-flops across the chain: ingress storage, mid-chain
  // pointers, egress CRC.
  const std::size_t n = core->netlist.num_flip_flops();
  config.ff_subset = {0, 1, n / 3, n / 2, 2 * n / 3, n - 2, n - 1};
  const fault::CampaignResult batched = engine.run(config);
  ASSERT_EQ(batched.per_ff.size(), config.ff_subset.size());
  for (const fault::FfResult& ff : batched.per_ff) {
    EXPECT_EQ(ff.classes.total(), config.injections_per_ff);
    EXPECT_GE(ff.fdr(), 0.0);
    EXPECT_LE(ff.fdr(), 1.0);
  }
  // Differential against the flat reference campaign at paper scale.
  const fault::CampaignResult flat =
      fault::run_campaign(core->netlist, bench->tb, engine.golden(), config);
  ASSERT_EQ(flat.per_ff.size(), batched.per_ff.size());
  for (std::size_t i = 0; i < flat.per_ff.size(); ++i) {
    EXPECT_EQ(flat.per_ff[i].classes.counts, batched.per_ff[i].classes.counts);
  }
  // Cross-FF packing: of 7 FFs x 16 = 112 injections the hold links answer
  // 61 without a lane and 1 with another's, and the other 50 fit one pass,
  // where the flat campaign needs one pass per flip-flop.
  EXPECT_EQ(batched.proven_injections, 61u);
  EXPECT_EQ(batched.collapsed_injections, 1u);
  EXPECT_EQ(batched.total_sim_passes, 1u);
  EXPECT_EQ(flat.total_sim_passes, 7u);
}

TEST_F(RelayFixture, CheckpointRestoreReproducesFullRunAtPaperScale) {
  // Restoring any golden checkpoint and fast-forwarding must reproduce the
  // frames (64 lanes, including delivery cycles) of a pass started at cycle
  // 0 bit-exactly, and, when both passes stopped at the same cycle (e.g. the
  // end), its final observable flip-flop state. One extra cycle-0 injection
  // in spare lane 63 forces the cycle-0 start; that lane is left out of the
  // comparison.
  const sim::CompiledStimulus stimulus(core->netlist, bench->tb);
  sim::GoldenCheckpoints ckpts;
  ckpts.interval = 29;
  const sim::GoldenResult golden = sim::run_golden(stimulus, &ckpts);
  ASSERT_EQ(ckpts.snapshots.size(), (stimulus.num_cycles() + 28) / 29);

  const auto ffs = core->netlist.flip_flops();
  sim::WideReplayRunner<1> full_runner(stimulus, ckpts);
  sim::WideReplayRunner<1> resumed_runner(stimulus, ckpts);
  constexpr std::size_t kSpare = sim::kNumLanes - 1;
  std::size_t same_stop = 0;  // probes whose final states were compared
  // Early / mid / late injections across the chain (ingress storage,
  // mid-chain pointer, egress CRC region).
  const std::size_t window = bench->tb.inject_end - bench->tb.inject_begin;
  const std::size_t probe_cycles[] = {bench->tb.inject_begin + 1,
                                      bench->tb.inject_begin + window / 2,
                                      bench->tb.inject_end - 1};
  const std::size_t probe_ffs[] = {1, ffs.size() / 2, ffs.size() - 1};
  for (std::size_t p = 0; p < 3; ++p) {
    sim::LaneInjection ev;
    ev.ff_cell = ffs[probe_ffs[p]];
    ev.cycle = static_cast<std::uint32_t>(probe_cycles[p]);
    ev.lane = static_cast<std::uint32_t>(p * 11);
    const sim::LaneInjection events[] = {ev};
    const sim::LaneInjection full_events[] = {
        ev, {ffs[0], 0, static_cast<std::uint32_t>(kSpare)}};
    const sim::RunResult full = full_runner.run(full_events);
    SCOPED_TRACE("probe " + std::to_string(p));
    EXPECT_EQ(full.start_cycle, 0u);
    const sim::RunResult resumed = resumed_runner.run(events);
    EXPECT_EQ(resumed.start_cycle, (probe_cycles[p] / 29) * 29);
    ASSERT_EQ(full.lane_frames.size(), resumed.lane_frames.size());
    for (std::size_t lane = 0; lane < kSpare; ++lane) {
      const sim::FrameList a = sim::lane_frames(full, golden.frames, lane);
      const sim::FrameList b = sim::lane_frames(resumed, golden.frames, lane);
      ASSERT_EQ(a.size(), b.size()) << "lane " << lane;
      for (std::size_t f = 0; f < a.size(); ++f) {
        ASSERT_EQ(a[f].bytes, b[f].bytes) << "lane " << lane << " frame " << f;
        ASSERT_EQ(a[f].err, b[f].err) << "lane " << lane << " frame " << f;
        ASSERT_EQ(a[f].end_cycle, b[f].end_cycle)
            << "lane " << lane << " frame " << f;
      }
    }
    if (full.cycles_simulated != resumed.start_cycle + resumed.cycles_simulated) {
      continue;
    }
    ++same_stop;
    const std::uint64_t compared = ~(std::uint64_t{1} << kSpare);
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      if (stimulus.cone().flip_flops[i] == 0) continue;
      const netlist::CellId ff = ffs[i];
      ASSERT_EQ(full_runner.simulator().ff_state(ff).word(0) & compared,
                resumed_runner.simulator().ff_state(ff).word(0) & compared)
          << "ff " << core->netlist.cell(ff).name;
    }
  }
  EXPECT_GT(same_stop, 0u);
}

TEST_F(RelayFixture, IncrementalCampaignBitExactAndCheaper) {
  fault::CampaignEngine engine(core->netlist, bench->tb);
  fault::CampaignConfig config;
  config.injections_per_ff = 48;
  // 64-lane passes: the hold links leave 103 lanes, which a wide host
  // would run as one pass from cycle 0, with no checkpoint to compare.
  config.lane_width = sim::LaneWidth::k64;
  const std::size_t n = core->netlist.num_flip_flops();
  for (std::size_t i = 0; i < n; i += 41) config.ff_subset.push_back(i);

  const fault::CampaignResult flat =
      fault::run_campaign(core->netlist, bench->tb, engine.golden(), config);
  const fault::CampaignResult incremental = engine.run(config);

  ASSERT_EQ(flat.per_ff.size(), incremental.per_ff.size());
  for (std::size_t i = 0; i < flat.per_ff.size(); ++i) {
    EXPECT_EQ(flat.per_ff[i].classes.counts, incremental.per_ff[i].classes.counts)
        << "ff " << flat.per_ff[i].name;
  }
  EXPECT_EQ(flat.fdr_vector(), incremental.fdr_vector());
  // The paper-scale cost argument: checkpointed starts cut simulated cycles
  // below a replay of every pass from reset, and dirty-set evaluation cuts
  // gate evaluations below a full sweep of every simulated cycle.
  EXPECT_GT(incremental.checkpoint_restores, 0u);
  EXPECT_LT(incremental.cycles_simulated,
            incremental.total_sim_passes * bench->tb.stimulus.num_cycles());
  EXPECT_LT(incremental.ops_evaluated,
            incremental.cycles_simulated * core->netlist.num_cells());
  // The result reports the engine's bit-packed golden checkpoint set.
  EXPECT_EQ(incremental.checkpoint_bytes, engine.checkpoints().memory_bytes());
}

TEST_F(RelayFixture, LaneWidthDifferentialAtPaperScale) {
  // The SIMD lane-block paths must match the flat 64-lane reference on the
  // paper-scale circuit too. Reduced subset/injection counts keep the scale
  // budget; test_lane_width.cpp carries the exhaustive width x thread sweep
  // on small circuits.
  sim::force_native_lane_width_for_testing(sim::LaneWidth::k512);
  fault::CampaignEngine engine(core->netlist, bench->tb);
  fault::CampaignConfig config;
  config.injections_per_ff = 30;
  const std::size_t n = core->netlist.num_flip_flops();
  for (std::size_t i = 0; i < n; i += 97) config.ff_subset.push_back(i);

  const fault::CampaignResult flat =
      fault::run_campaign(core->netlist, bench->tb, engine.golden(), config);
  for (const sim::LaneWidth width : {sim::LaneWidth::k256, sim::LaneWidth::k512}) {
    SCOPED_TRACE(std::string("width ") + sim::to_string(width));
    fault::CampaignConfig wide = config;
    wide.lane_width = width;
    const fault::CampaignResult result = engine.run(wide);
    EXPECT_EQ(result.lanes_per_pass,
              sim::lanes_of(width) * result.blocks_per_pass);
    ASSERT_EQ(flat.per_ff.size(), result.per_ff.size());
    for (std::size_t i = 0; i < flat.per_ff.size(); ++i) {
      EXPECT_EQ(flat.per_ff[i].classes.counts, result.per_ff[i].classes.counts)
          << "ff " << flat.per_ff[i].name;
    }
    EXPECT_EQ(flat.fdr_vector(), result.fdr_vector());
  }
  sim::force_native_lane_width_for_testing(sim::LaneWidth::kAuto);
}

TEST_F(RelayFixture, EventDrivenTickAtDefaultShape) {
  // The paper-scale campaign at the default 512 x 2 pass shape: the
  // event-driven tick must capture at least 85% fewer FF blocks than a full
  // tick (every FF in every block on every simulated cycle).
  sim::force_native_lane_width_for_testing(sim::LaneWidth::k512);
  fault::CampaignEngine engine(core->netlist, bench->tb);
  fault::CampaignConfig config;
  config.lane_width = sim::LaneWidth::k512;
  config.blocks_per_pass = 2;
  const fault::CampaignResult result = engine.run(config);
  sim::force_native_lane_width_for_testing(sim::LaneWidth::kAuto);
  ASSERT_EQ(result.pass_histogram.size(), 1u);
  ASSERT_EQ(result.pass_histogram[0].blocks, 2u);
  EXPECT_EQ(result.op_block_evals, 2 * result.ops_evaluated);
  const std::uint64_t full_tick =
      core->netlist.num_flip_flops() * 2 * result.cycles_simulated;
  EXPECT_LE(result.ff_block_ticks * 100, full_tick * 15)
      << result.ff_block_ticks << " of " << full_tick;
}

TEST_F(RelayFixture, ShardedCampaignMergesBitIdenticalAtPaperScale) {
  // Paper-scale shard-equivalence: a 3-way sharded campaign on the >= 947-FF
  // relay design, merged in every shard permutation, must be bit-identical
  // to the unsharded engine run — FDR and every deterministic counter.
  fault::CampaignEngine engine(core->netlist, bench->tb);
  fault::CampaignConfig config;
  config.injections_per_ff = 24;
  const std::size_t n = core->netlist.num_flip_flops();
  for (std::size_t i = 0; i < n; i += 53) config.ff_subset.push_back(i);

  const fault::CampaignResult unsharded = engine.run(config);

  constexpr std::size_t kShards = 3;
  std::vector<fault::CampaignPartial> partials;
  for (std::size_t k = 0; k < kShards; ++k) {
    fault::CampaignConfig shard = config;
    shard.shard = fault::ShardSpec{k, kShards};
    partials.push_back(fault::run_shard(engine, shard));
  }

  std::vector<std::size_t> order = {0, 1, 2};
  do {
    std::vector<fault::CampaignPartial> shuffled;
    for (const std::size_t k : order) shuffled.push_back(partials[k]);
    const fault::CampaignResult merged = fault::merge_partials(shuffled);
    ASSERT_EQ(merged.per_ff.size(), unsharded.per_ff.size());
    for (std::size_t i = 0; i < merged.per_ff.size(); ++i) {
      EXPECT_EQ(merged.per_ff[i].classes.counts,
                unsharded.per_ff[i].classes.counts)
          << "ff " << unsharded.per_ff[i].name;
      EXPECT_EQ(merged.per_ff[i].injections, unsharded.per_ff[i].injections);
    }
    EXPECT_EQ(merged.fdr_vector(), unsharded.fdr_vector());
    EXPECT_EQ(merged.total_injections, unsharded.total_injections);
    EXPECT_EQ(merged.total_sim_passes, unsharded.total_sim_passes);
    EXPECT_EQ(merged.cycles_simulated, unsharded.cycles_simulated);
    EXPECT_EQ(merged.ops_evaluated, unsharded.ops_evaluated);
    EXPECT_EQ(merged.checkpoint_restores, unsharded.checkpoint_restores);
    ASSERT_EQ(merged.pass_histogram.size(), unsharded.pass_histogram.size());
    for (std::size_t i = 0; i < merged.pass_histogram.size(); ++i) {
      EXPECT_EQ(merged.pass_histogram[i].width,
                unsharded.pass_histogram[i].width);
      EXPECT_EQ(merged.pass_histogram[i].blocks,
                unsharded.pass_histogram[i].blocks);
      EXPECT_EQ(merged.pass_histogram[i].passes,
                unsharded.pass_histogram[i].passes);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST_F(RelayFixture, ImportedNetlistCampaignBitExact) {
  // The Verilog frontend's paper-scale differential: dump the >= 947-FF
  // relay design, read it back, and require campaigns on the imported
  // netlist to be bit-identical to the flat reference on the in-memory
  // original — at the scalar k64 width and at kAuto (widest SIMD block).
  const std::string text = netlist::to_verilog(core->netlist);
  const netlist::Netlist imported = netlist::read_verilog(text, "relay_core.v");
  std::string why;
  ASSERT_TRUE(netlist::structurally_equal(core->netlist, imported, &why)) << why;
  ASSERT_EQ(netlist::to_verilog(imported), text);

  const sim::Testbench tb =
      sim::retarget_testbench(bench->tb, core->netlist, imported);
  const sim::GoldenResult golden_orig = sim::run_golden(core->netlist, bench->tb);
  const sim::GoldenResult golden_imp = sim::run_golden(imported, tb);
  ASSERT_EQ(golden_orig.frames.size(), golden_imp.frames.size());
  for (std::size_t f = 0; f < golden_orig.frames.size(); ++f) {
    ASSERT_EQ(golden_orig.frames[f].bytes, golden_imp.frames[f].bytes) << f;
    ASSERT_EQ(golden_orig.frames[f].err, golden_imp.frames[f].err) << f;
  }

  fault::CampaignConfig config;
  config.injections_per_ff = 24;
  const std::size_t n = core->netlist.num_flip_flops();
  for (std::size_t i = 0; i < n; i += 67) config.ff_subset.push_back(i);

  const fault::CampaignResult flat =
      fault::run_campaign(core->netlist, bench->tb, golden_orig, config);
  fault::CampaignEngine engine(imported, tb);
  for (const sim::LaneWidth width : {sim::LaneWidth::k64, sim::LaneWidth::kAuto}) {
    SCOPED_TRACE(std::string("width ") + sim::to_string(width));
    fault::CampaignConfig wide = config;
    wide.lane_width = width;
    const fault::CampaignResult batched = engine.run(wide);
    ASSERT_EQ(flat.per_ff.size(), batched.per_ff.size());
    for (std::size_t i = 0; i < flat.per_ff.size(); ++i) {
      EXPECT_EQ(flat.per_ff[i].name, batched.per_ff[i].name);
      EXPECT_EQ(flat.per_ff[i].classes.counts, batched.per_ff[i].classes.counts)
          << "ff " << flat.per_ff[i].name;
    }
    EXPECT_EQ(flat.fdr_vector(), batched.fdr_vector());
  }
}

}  // namespace
}  // namespace ffr::circuits
