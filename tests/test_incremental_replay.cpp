// Property and differential tests for the incremental checkpointed replay
// subsystem: WideSimulator's dirty-set eval_incremental() and event-driven
// tick() vs the full sweep on random circuits, golden checkpoint
// record/restore bit-exactness on mac_core and pipeline_core (relay_core is
// covered in test_relay_core.cpp) at intervals from 1 to the testbench
// length, 64-lane engine-style passes against the flat run_testbench()
// oracle, equivalence of the batched CampaignEngine with the flat reference
// campaign (short and zero-cycle testbenches included), and its
// cost-accounting invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "circuits/pipeline_core.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/relay_core.hpp"
#include "fault/campaign.hpp"
#include "fault/engine.hpp"
#include "netlist/builder.hpp"
#include "sim/runner.hpp"
#include "sim/wide_runner.hpp"
#include "sim/wide_sim.hpp"
#include "util/rng.hpp"

namespace ffr {
namespace {

// ---- wide (SIMD lane-block) simulator: dirty-set evaluation vs full sweep ------

template <std::size_t W>
sim::LaneBlock<W> random_block(util::Rng& rng) {
  sim::LaneBlock<W> block = sim::LaneBlock<W>::zero();
  for (std::size_t w = 0; w < W; ++w) block.set_word(w, rng());
  return block;
}

template <std::size_t W>
void expect_same_ff_state(const netlist::Netlist& nl,
                          const sim::WideSimulator<W>& want,
                          const sim::WideSimulator<W>& got, const std::string& where) {
  for (const netlist::CellId ff : nl.flip_flops()) {
    for (std::size_t b = 0; b < want.num_blocks(); ++b) {
      ASSERT_FALSE(differs(want.ff_state(ff, b), got.ff_state(ff, b)))
          << where << " Q of " << nl.cell(ff).name << " block " << b;
    }
  }
}

template <std::size_t W>
void expect_same_nets(const netlist::Netlist& nl, const sim::WideSimulator<W>& want,
                      const sim::WideSimulator<W>& got, const std::string& where) {
  for (netlist::NetId net = 0; net < nl.num_nets(); ++net) {
    for (std::size_t b = 0; b < want.num_blocks(); ++b) {
      ASSERT_FALSE(differs(want.value(net, b), got.value(net, b)))
          << where << " net " << net << " (" << nl.net(net).name << ") block " << b;
    }
  }
}

/// Dirty-set eval plus event-driven tick against full eval plus full tick,
/// with per-block inputs and injections: every net after each eval and every
/// Q after each tick must agree.
template <std::size_t W>
void check_wide_dirty_set_matches_full() {
  for (const std::size_t blocks : {std::size_t{1}, std::size_t{3}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      circuits::RandomCircuitConfig cc;
      cc.num_gates = 50 + 25 * static_cast<std::size_t>(seed % 3);
      cc.num_flip_flops = 6 + 3 * static_cast<std::size_t>(seed % 2);
      cc.seed = seed;
      const netlist::Netlist nl = circuits::build_random_circuit(cc);
      sim::WideSimulator<W> full(nl, blocks);
      sim::WideSimulator<W> incremental(nl, blocks);
      util::Rng rng(seed * 55 + 2);
      const auto pis = nl.primary_inputs();
      const auto ffs = nl.flip_flops();
      for (int cycle = 0; cycle < 24; ++cycle) {
        const std::string where = "W=" + std::to_string(W) + " blocks " +
                                  std::to_string(blocks) + " seed " +
                                  std::to_string(seed) + " cycle " +
                                  std::to_string(cycle);
        for (const netlist::NetId pi : pis) {
          for (std::size_t b = 0; b < blocks; ++b) {
            const auto value = random_block<W>(rng);
            full.set_input_block(pi, b, value);
            incremental.set_input_block(pi, b, value);
          }
        }
        if (!ffs.empty() && rng.bernoulli(0.3)) {
          const netlist::CellId cell = ffs[rng.below(ffs.size())];
          const auto mask = random_block<W>(rng);
          const std::size_t block = rng.below(blocks);
          full.inject(cell, mask, block);
          incremental.inject(cell, mask, block);
        }
        full.eval();
        incremental.eval_incremental();
        expect_same_nets(nl, full, incremental, where);
        full.tick();
        incremental.tick();
        expect_same_ff_state(nl, full, incremental, where);
      }
      EXPECT_LE(incremental.ops_evaluated(), full.ops_evaluated())
          << "W=" << W << " seed " << seed;
      EXPECT_LE(incremental.ff_block_ticks(), full.ff_block_ticks())
          << "W=" << W << " seed " << seed;
    }
  }
}

TEST(WideDirtySetEval, MatchesFullEvalAt64) { check_wide_dirty_set_matches_full<1>(); }
TEST(WideDirtySetEval, MatchesFullEvalAt256) { check_wide_dirty_set_matches_full<4>(); }
TEST(WideDirtySetEval, MatchesFullEvalAt512) { check_wide_dirty_set_matches_full<8>(); }

/// Each dirty-set sweep visits exactly the ops with at least one input net
/// whose value changed since the previous sweep: no op twice, none left
/// pending, no reader missed. The changed nets come from a full-sweep twin.
/// Circuits of 300+ ops span several pending words, so level ranges
/// straddle word boundaries. Stimulus flips single lanes as well as whole
/// blocks, to keep the active cone sparse. At most one injection per cycle,
/// so no net is marked dirty by flips that cancel out.
template <std::size_t W>
void check_wide_dirty_set_visit_set(std::size_t blocks) {
  using Block = sim::LaneBlock<W>;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    circuits::RandomCircuitConfig cc;
    cc.num_inputs = 6;
    cc.num_gates = 300 + 60 * static_cast<std::size_t>(seed);
    cc.num_flip_flops = 24;
    cc.seed = seed;
    const netlist::Netlist nl = circuits::build_random_circuit(cc);
    sim::WideSimulator<W> full(nl, blocks);
    sim::WideSimulator<W> incremental(nl, blocks);
    util::Rng rng(seed * 71 + blocks);
    const auto pis = nl.primary_inputs();
    const auto ffs = nl.flip_flops();
    const auto flip = [&] {
      return rng.bernoulli(0.5) ? random_block<W>(rng)
                                : Block::lane_mask(rng.below(Block::kLanes));
    };
    std::vector<Block> before(nl.num_nets() * blocks);
    const auto record = [&] {
      for (netlist::NetId net = 0; net < nl.num_nets(); ++net) {
        for (std::size_t b = 0; b < blocks; ++b) {
          before[net * blocks + b] = full.value(net, b);
        }
      }
    };
    record();
    std::vector<std::uint8_t> changed(nl.num_nets());
    for (int cycle = 0; cycle < 32; ++cycle) {
      for (const netlist::NetId pi : pis) {
        if (!rng.bernoulli(0.3)) continue;
        const std::size_t b = rng.below(blocks);
        const Block value = full.value(pi, b) ^ flip();
        full.set_input_block(pi, b, value);
        incremental.set_input_block(pi, b, value);
      }
      if (rng.bernoulli(0.5)) {
        const netlist::CellId cell = ffs[rng.below(ffs.size())];
        const Block mask = flip();
        const std::size_t block = rng.below(blocks);
        full.inject(cell, mask, block);
        incremental.inject(cell, mask, block);
      }
      full.eval();
      const std::uint64_t ops_before = incremental.ops_evaluated();
      incremental.eval_incremental();
      for (netlist::NetId net = 0; net < nl.num_nets(); ++net) {
        changed[net] = 0;
        for (std::size_t b = 0; b < blocks; ++b) {
          if (differs(full.value(net, b), before[net * blocks + b])) changed[net] = 1;
        }
      }
      std::uint64_t want = 0;
      for (const netlist::CellId id : nl.topo_order()) {
        const auto& inputs = nl.cell(id).inputs;
        if (std::any_of(inputs.begin(), inputs.end(),
                        [&](netlist::NetId in) { return changed[in] != 0; })) {
          ++want;
        }
      }
      ASSERT_EQ(incremental.ops_evaluated() - ops_before, want)
          << "W=" << W << " blocks " << blocks << " seed " << seed << " cycle "
          << cycle;
      record();
      full.tick();
      incremental.tick();
    }
  }
}

TEST(WideDirtySetEval, VisitsExactlyTheOpsWithAChangedInput) {
  for (const std::size_t blocks : {std::size_t{1}, std::size_t{3}}) {
    check_wide_dirty_set_visit_set<1>(blocks);
    check_wide_dirty_set_visit_set<8>(blocks);
  }
}

/// A netlist with every way a flip-flop's D can change: D is a primary
/// input, another FF's Q (a 3-stage shift chain), a loopback input, an op
/// output, or a constant (only injections move those FFs' Q).
struct TickPathsCircuit {
  netlist::Netlist nl;
  netlist::NetId loop_in = netlist::kNoNet;    // loopback input
  netlist::NetId loop_from = netlist::kNoNet;  // its source net
  std::vector<netlist::CellId> constant_ffs;   // D tied to 0 / 1
};

TickPathsCircuit build_tick_paths_circuit() {
  netlist::NetlistBuilder b("tick_paths");
  const netlist::NetId a = b.input("a");
  const netlist::NetId shift_in = b.input("shift_in");
  TickPathsCircuit c;
  c.loop_in = b.input("loop_in");
  const netlist::FlipFlop pi_ff = b.dff(a, false, "pi_ff");
  const netlist::FlipFlop s0 = b.dff(shift_in, false, "s0");
  const netlist::FlipFlop s1 = b.dff(s0.q, true, "s1");
  const netlist::FlipFlop s2 = b.dff(s1.q, false, "s2");
  const netlist::FlipFlop loop_ff = b.dff(c.loop_in, false, "loop_ff");
  const netlist::FlipFlop zero_ff = b.dff(b.constant(false), false, "zero_ff");
  const netlist::FlipFlop one_ff = b.dff(b.constant(true), true, "one_ff");
  const netlist::FlipFlop logic_ff = b.dff(b.xor2(a, s2.q), false, "logic_ff");
  const netlist::FlipFlop toggle = b.dff_loop(
      [&](netlist::NetId q) { return b.xor2(q, loop_ff.q); }, false, "toggle");
  b.output(b.and2(pi_ff.q, zero_ff.q), "o0");
  b.output(b.or2(one_ff.q, toggle.q), "o1");
  b.output(logic_ff.q, "o2");
  c.loop_from = logic_ff.q;
  c.constant_ffs = {zero_ff.cell, one_ff.cell};
  c.nl = b.build();
  return c;
}

/// The event-driven tick against the full tick on every D path, with
/// injections into constant-D FFs, a loopback, and a mid-run restore of an
/// arbitrary register state.
template <std::size_t W>
void check_event_driven_tick() {
  const TickPathsCircuit c = build_tick_paths_circuit();
  const netlist::Netlist& nl = c.nl;
  const auto ffs = nl.flip_flops();
  for (const std::size_t blocks : {std::size_t{1}, std::size_t{3}}) {
    sim::WideSimulator<W> full(nl, blocks);
    sim::WideSimulator<W> event(nl, blocks);
    util::Rng rng(31 * W + blocks);
    std::vector<sim::LaneBlock<W>> loop(blocks, sim::LaneBlock<W>::zero());
    for (int cycle = 0; cycle < 48; ++cycle) {
      const std::string where = "W=" + std::to_string(W) + " blocks " +
                                std::to_string(blocks) + " cycle " +
                                std::to_string(cycle);
      for (const netlist::NetId pi : nl.primary_inputs()) {
        for (std::size_t b = 0; b < blocks; ++b) {
          const auto value = pi == c.loop_in ? loop[b] : random_block<W>(rng);
          full.set_input_block(pi, b, value);
          event.set_input_block(pi, b, value);
        }
      }
      if (cycle % 3 == 0 || rng.bernoulli(0.3)) {
        // Every third cycle flips an FF whose D never changes: only the
        // injection itself can schedule its tick.
        const netlist::CellId cell =
            cycle % 3 == 0 ? c.constant_ffs[(cycle / 3) % 2]
                           : ffs[rng.below(ffs.size())];
        const auto mask = random_block<W>(rng);
        const std::size_t block = rng.below(blocks);
        full.inject(cell, mask, block);
        event.inject(cell, mask, block);
      }
      if (cycle == 20) {
        std::vector<sim::LaneBlock<W>> state(ffs.size() * blocks);
        for (auto& block : state) block = random_block<W>(rng);
        full.restore_ff_state(state);
        event.restore_ff_state(state);
      }
      full.eval();
      event.eval_incremental();
      expect_same_nets(nl, full, event, where);
      for (std::size_t b = 0; b < blocks; ++b) loop[b] = full.value(c.loop_from, b);
      full.tick();
      event.tick();
      expect_same_ff_state(nl, full, event, where);
    }
    EXPECT_LT(event.ff_block_ticks(), full.ff_block_ticks()) << "blocks " << blocks;
    EXPECT_EQ(full.ff_block_ticks(), 48 * ffs.size() * blocks);
  }
}

TEST(WideEventTick, MatchesFullTickOnEveryDPathAt64) { check_event_driven_tick<1>(); }
TEST(WideEventTick, MatchesFullTickOnEveryDPathAt256) { check_event_driven_tick<4>(); }
TEST(WideEventTick, MatchesFullTickOnEveryDPathAt512) { check_event_driven_tick<8>(); }

template <std::size_t W>
void check_wide_restore_forces_resync() {
  const netlist::Netlist nl = circuits::build_random_circuit({});
  sim::WideSimulator<W> reference(nl);
  sim::WideSimulator<W> sim(nl);
  util::Rng rng(43 + W);
  const auto pis = nl.primary_inputs();
  const auto ffs = nl.flip_flops();
  // Walk `sim` into a fully diverged per-lane state (checkpoint-restore at
  // width > 64 happens mid-campaign, when every block carries live faults).
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (const netlist::NetId pi : pis) sim.set_input(pi, random_block<W>(rng));
    if (!ffs.empty()) sim.inject(ffs[rng.below(ffs.size())], random_block<W>(rng));
    sim.eval_incremental();
    sim.tick();
  }
  // Regression guard: leave nets dirtied but NOT yet swept when the restore
  // lands. A resync that trusted the stale dirty set would only re-evaluate
  // those cones and skip every block the restore invalidated underneath.
  for (const netlist::NetId pi : pis) sim.set_input(pi, random_block<W>(rng));
  std::vector<sim::LaneBlock<W>> state;
  reference.snapshot_ff_state(state);
  sim.restore_ff_state(state);
  for (const netlist::NetId pi : pis) sim.set_input(pi, reference.value(pi));
  sim.eval_incremental();
  for (netlist::NetId net = 0; net < nl.num_nets(); ++net) {
    ASSERT_FALSE(differs(sim.value(net), reference.value(net)))
        << "W=" << W << " net " << net << " (" << nl.net(net).name << ")";
  }
}

TEST(WideDirtySetEval, QuiescentSweepEvaluatesNothing) {
  const netlist::Netlist nl = circuits::build_random_circuit({});
  sim::WideSimulator<1> sim(nl);
  sim.eval();
  const std::uint64_t before = sim.ops_evaluated();
  sim.eval_incremental();  // no inputs changed since the full sweep
  EXPECT_EQ(sim.ops_evaluated(), before);
}

TEST(WideDirtySetEval, RestoreForcesFullResyncAt64) {
  check_wide_restore_forces_resync<1>();
}
TEST(WideDirtySetEval, RestoreForcesFullResyncAt256) {
  check_wide_restore_forces_resync<4>();
}
TEST(WideDirtySetEval, RestoreForcesFullResyncAt512) {
  check_wide_restore_forces_resync<8>();
}

TEST(WideDirtySetEval, RestoreRejectsSizeMismatch) {
  const netlist::Netlist nl = circuits::build_random_circuit({});
  sim::WideSimulator<8> sim(nl);
  const std::vector<sim::LaneBlock<8>> wrong(sim.num_ffs() + 1,
                                             sim::LaneBlock<8>::zero());
  EXPECT_THROW(sim.restore_ff_state(wrong), std::invalid_argument);
}

// ---- checkpoint record / restore ---------------------------------------------

/// Every lane but `skip` of two passes delivers the same frames.
void expect_same_run(const sim::RunResult& full, const sim::RunResult& resumed,
                     const sim::FrameList& golden, std::size_t skip) {
  ASSERT_EQ(full.lane_frames.size(), resumed.lane_frames.size());
  for (std::size_t lane = 0; lane < full.lane_frames.size(); ++lane) {
    if (lane == skip) continue;
    const sim::FrameList a = sim::lane_frames(full, golden, lane);
    const sim::FrameList b = sim::lane_frames(resumed, golden, lane);
    ASSERT_EQ(a.size(), b.size()) << "lane " << lane;
    for (std::size_t f = 0; f < a.size(); ++f) {
      EXPECT_EQ(a[f].bytes, b[f].bytes) << "lane " << lane << " frame " << f;
      EXPECT_EQ(a[f].err, b[f].err) << "lane " << lane << " frame " << f;
      // Stricter than Frame::operator== — a resumed replay reproduces even
      // the delivery cycles.
      EXPECT_EQ(a[f].end_cycle, b[f].end_cycle)
          << "lane " << lane << " frame " << f;
    }
  }
}

/// For every recorded checkpoint: an injection schedule that lands right at,
/// right after, and far beyond the snapshot cycle must replay bit-exactly
/// (frames of the 64 lanes, and the final observable flip-flop state when
/// both passes stopped at the same cycle, e.g. the end) whether it starts
/// from the checkpoint or from cycle 0. One extra cycle-0 injection in a
/// spare lane forces the cycle-0 start; that lane is left out of the
/// comparison.
void check_checkpoint_property(const netlist::Netlist& nl, const sim::Testbench& tb,
                               std::size_t interval) {
  const sim::CompiledStimulus stimulus(nl, tb);
  sim::GoldenCheckpoints ckpts;
  ckpts.interval = interval;
  const sim::GoldenResult golden = sim::run_golden(stimulus, &ckpts);
  ASSERT_EQ(ckpts.snapshots.size(), (stimulus.num_cycles() + interval - 1) / interval);
  for (std::size_t k = 0; k < ckpts.snapshots.size(); ++k) {
    ASSERT_EQ(ckpts.snapshots[k].cycle, k * interval);
  }

  const auto ffs = nl.flip_flops();
  sim::WideReplayRunner<1> full_runner(stimulus, ckpts);
  sim::WideReplayRunner<1> resumed_runner(stimulus, ckpts);
  util::Rng rng(interval * 1234567ULL + 9);
  std::size_t same_stop = 0;  // checkpoints whose final states were compared
  for (std::size_t k = 0; k < ckpts.snapshots.size(); ++k) {
    const std::size_t base = ckpts.snapshots[k].cycle;
    std::vector<sim::LaneInjection> events;
    sim::LaneInjection first;
    first.ff_cell = ffs[rng.below(ffs.size())];
    first.cycle = static_cast<std::uint32_t>(base);
    first.lane = static_cast<std::uint32_t>(k % sim::kNumLanes);
    events.push_back(first);
    if (base + interval / 2 + 1 < stimulus.num_cycles()) {
      sim::LaneInjection second;
      second.ff_cell = ffs[rng.below(ffs.size())];
      second.cycle = static_cast<std::uint32_t>(base + interval / 2 + 1);
      second.lane = static_cast<std::uint32_t>((k + 17) % sim::kNumLanes);
      events.push_back(second);
    }
    const std::size_t spare = (k + 40) % sim::kNumLanes;
    std::vector<sim::LaneInjection> full_events = events;
    full_events.push_back({ffs[k % ffs.size()], 0, static_cast<std::uint32_t>(spare)});
    const sim::RunResult full = full_runner.run(full_events);
    EXPECT_EQ(full.start_cycle, 0u);
    const sim::RunResult resumed = resumed_runner.run(events);
    SCOPED_TRACE("interval " + std::to_string(interval) + " checkpoint " +
                 std::to_string(k));
    EXPECT_EQ(resumed.start_cycle, base);
    EXPECT_LE(resumed.cycles_simulated, stimulus.num_cycles() - base);
    expect_same_run(full, resumed, golden.frames, spare);
    if (full.cycles_simulated != resumed.start_cycle + resumed.cycles_simulated) {
      continue;
    }
    ++same_stop;
    const std::uint64_t compared = ~(std::uint64_t{1} << spare);
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      if (stimulus.cone().flip_flops[i] == 0) continue;
      const netlist::CellId ff = ffs[i];
      ASSERT_EQ(full_runner.simulator().ff_state(ff).word(0) & compared,
                resumed_runner.simulator().ff_state(ff).word(0) & compared)
          << "checkpoint " << k << " Q of " << nl.cell(ff).name;
    }
  }
  EXPECT_GT(same_stop, 0u) << "interval " << interval;
}

TEST(CheckpointRestore, ReproducesFullRunOnMac) {
  circuits::MacConfig mc;
  mc.tx_depth_log2 = 3;
  mc.rx_depth_log2 = 3;
  const circuits::MacCore mac = circuits::build_mac_core(mc);
  circuits::MacTestbenchConfig tbc;
  tbc.num_frames = 2;
  tbc.min_payload = 8;
  tbc.max_payload = 12;
  tbc.seed = 7;
  const circuits::MacTestbench bench = circuits::build_mac_testbench(mac, tbc);
  check_checkpoint_property(mac.netlist, bench.tb, 13);
}

TEST(CheckpointRestore, ReproducesFullRunOnPipeline) {
  // The engine records at one fixed interval, so the recording and restore
  // paths carry the interval edge cases: a snapshot every cycle, intervals
  // that do not divide the testbench, and a single snapshot at cycle 0
  // (interval == testbench length).
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core, 48);
  const std::size_t num_cycles = bench.tb.stimulus.num_cycles();
  for (const std::size_t interval :
       {std::size_t{1}, std::size_t{7}, std::size_t{9}, num_cycles}) {
    check_checkpoint_property(core.netlist, bench.tb, interval);
  }
}

// ---- bit-packed checkpoints: one shared representation, any pass shape -------

/// Restoring a bit-packed snapshot must behave identically whether the
/// consumer is a single-block 64-lane runner or a multi-block wide runner:
/// the packed golden bit is splat across every lane of every block, so the
/// same checkpoint set drives both shapes to bit-identical frames and state.
TEST(PackedCheckpoints, RestoreFromPackedEqualsRestoreFromWide) {
  circuits::MacConfig mc;
  mc.tx_depth_log2 = 3;
  mc.rx_depth_log2 = 3;
  const circuits::MacCore mac = circuits::build_mac_core(mc);
  circuits::MacTestbenchConfig tbc;
  tbc.num_frames = 2;
  tbc.min_payload = 8;
  tbc.max_payload = 12;
  tbc.seed = 11;
  const circuits::MacTestbench bench = circuits::build_mac_testbench(mac, tbc);
  const sim::CompiledStimulus stimulus(mac.netlist, bench.tb);

  sim::GoldenCheckpoints ckpts;
  ckpts.interval = 10;
  const sim::GoldenResult golden = sim::run_golden(stimulus, &ckpts);

  constexpr std::size_t kW = 4;
  constexpr std::size_t kBlocks = 2;
  const auto ffs = mac.netlist.flip_flops();
  sim::WideReplayRunner<1> narrow(stimulus, ckpts);
  sim::WideReplayRunner<kW> wide(stimulus, ckpts, kBlocks);
  ASSERT_EQ(wide.lanes(), kBlocks * kW * 64);

  // The same three injections in both runners; the wide lanes deliberately
  // span both blocks (lane 0, a lane in the middle of block 0, a lane in
  // block 1) so every splat path is exercised.
  const std::size_t cycles[] = {bench.tb.inject_begin + 1,
                                bench.tb.inject_begin + 11,
                                bench.tb.inject_end - 1};
  const std::size_t narrow_lanes[] = {0, 13, 40};
  const std::size_t wide_lanes[] = {0, kW * 64 - 7, kW * 64 + 129};
  std::vector<sim::LaneInjection> narrow_events;
  std::vector<sim::LaneInjection> wide_events;
  for (std::size_t i = 0; i < 3; ++i) {
    sim::LaneInjection ev;
    ev.ff_cell = ffs[(i * 37 + 5) % ffs.size()];
    ev.cycle = static_cast<std::uint32_t>(cycles[i]);
    ev.lane = static_cast<std::uint32_t>(narrow_lanes[i]);
    narrow_events.push_back(ev);
    ev.lane = static_cast<std::uint32_t>(wide_lanes[i]);
    wide_events.push_back(ev);
  }

  const sim::RunResult from_narrow = narrow.run(narrow_events);
  const sim::RunResult from_wide = wide.run(wide_events);

  EXPECT_EQ(from_narrow.start_cycle, from_wide.start_cycle);
  EXPECT_EQ(from_narrow.cycles_simulated, from_wide.cycles_simulated);
  ASSERT_EQ(from_wide.lane_frames.size(), wide.lanes());
  for (std::size_t i = 0; i < 3; ++i) {
    const sim::FrameList a =
        sim::lane_frames(from_narrow, golden.frames, narrow_lanes[i]);
    const sim::FrameList b =
        sim::lane_frames(from_wide, golden.frames, wide_lanes[i]);
    ASSERT_EQ(a.size(), b.size()) << "injection " << i;
    for (std::size_t f = 0; f < a.size(); ++f) {
      EXPECT_EQ(a[f].bytes, b[f].bytes) << "injection " << i << " frame " << f;
      EXPECT_EQ(a[f].err, b[f].err) << "injection " << i << " frame " << f;
      EXPECT_EQ(a[f].end_cycle, b[f].end_cycle)
          << "injection " << i << " frame " << f;
    }
  }
  // Final observable flip-flop state, per corresponding lane.
  for (std::size_t k = 0; k < ffs.size(); ++k) {
    if (stimulus.cone().flip_flops[k] == 0) continue;
    const netlist::CellId ff = ffs[k];
    for (std::size_t i = 0; i < 3; ++i) {
      const std::size_t g = wide_lanes[i];
      const std::uint64_t wide_word =
          wide.simulator().ff_state(ff, g / (kW * 64)).word((g / 64) % kW);
      ASSERT_EQ(narrow.simulator().ff_state(ff).lane(narrow_lanes[i]),
                ((wide_word >> (g % 64)) & 1u) != 0)
          << "ff " << mac.netlist.cell(ff).name << " injection " << i;
    }
  }
}

TEST(PackedCheckpoints, PackedStateIsOneBitPerFlipFlop) {
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core, 64);
  const sim::CompiledStimulus stimulus(core.netlist, bench.tb);
  sim::GoldenCheckpoints ckpts;
  ckpts.interval = 8;
  const sim::GoldenResult golden = sim::run_golden(stimulus, &ckpts);

  // One bit per FF (+ loopback) per snapshot, rounded up to whole words.
  EXPECT_EQ(ckpts.state_bits.size(),
            ckpts.snapshots.size() * ckpts.state_stride());
  EXPECT_EQ(ckpts.state_stride(),
            (ckpts.num_ffs + ckpts.num_loopbacks + 63) / 64);
  // Golden frames are stored once, as a prefix-shared stream, not copied
  // per snapshot.
  for (const auto& snap : ckpts.snapshots) {
    EXPECT_LE(snap.frames_completed, golden.frames.size());
  }
}

TEST(PackedCheckpoints, WideRunnerContractsRejectMisuse) {
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core, 24);
  const sim::CompiledStimulus stimulus(core.netlist, bench.tb);

  // A golden recording's interval must lie in [1, testbench length].
  sim::GoldenCheckpoints ckpts;
  ckpts.interval = 0;
  EXPECT_THROW((void)sim::run_golden(stimulus, &ckpts), std::invalid_argument);
  ckpts.interval = stimulus.num_cycles() + 1;
  EXPECT_THROW((void)sim::run_golden(stimulus, &ckpts), std::invalid_argument);
  ckpts.interval = 8;
  (void)sim::run_golden(stimulus, &ckpts);

  // Block-count bounds are enforced at construction.
  EXPECT_THROW(sim::WideReplayRunner<4>(stimulus, ckpts, 0), std::invalid_argument);
  EXPECT_THROW(sim::WideReplayRunner<4>(stimulus, ckpts, sim::kMaxLaneBlocksPerPass + 1),
               std::invalid_argument);

  sim::WideReplayRunner<4> runner(stimulus, ckpts, 2);
  sim::LaneInjection ev;
  ev.ff_cell = core.netlist.flip_flops()[0];
  ev.cycle = static_cast<std::uint32_t>(bench.tb.inject_begin);
  ev.lane = 0;
  const sim::LaneInjection events[] = {ev};

  // A lane beyond blocks * W * 64 or a cycle beyond the run is out of range.
  sim::LaneInjection out_of_range = ev;
  out_of_range.lane = static_cast<std::uint32_t>(runner.lanes());
  const sim::LaneInjection bad_lane[] = {out_of_range};
  EXPECT_THROW((void)runner.run(bad_lane), std::invalid_argument);
  out_of_range = ev;
  out_of_range.cycle = static_cast<std::uint32_t>(stimulus.num_cycles());
  const sim::LaneInjection bad_cycle[] = {out_of_range};
  EXPECT_THROW((void)runner.run(bad_cycle), std::invalid_argument);

  // A recording without snapshots has nothing to resume from.
  sim::GoldenCheckpoints no_snapshots = ckpts;
  no_snapshots.snapshots.clear();
  sim::WideReplayRunner<4> unresumable(stimulus, no_snapshots, 2);
  EXPECT_THROW((void)unresumable.run(events), std::logic_error);

  // A recording keeps one interface-tape sample per cycle and charges it in
  // memory_bytes(); a fault pass needs that full tape, and the recording's
  // loopback count must match the testbench's.
  ASSERT_EQ(ckpts.interface_tape.size(), stimulus.num_cycles());
  sim::GoldenCheckpoints without_tape = ckpts;
  without_tape.interface_tape.clear();
  EXPECT_EQ(ckpts.memory_bytes() - without_tape.memory_bytes(),
            stimulus.num_cycles() * sizeof(std::uint16_t));
  EXPECT_THROW(sim::WideReplayRunner<4>(stimulus, without_tape, 2),
               std::invalid_argument);
  EXPECT_THROW(sim::WideReplayRunner<4>(stimulus, sim::GoldenCheckpoints{}, 2),
               std::invalid_argument);
  sim::GoldenCheckpoints wrong_loopbacks = ckpts;
  ++wrong_loopbacks.num_loopbacks;
  EXPECT_THROW(sim::WideReplayRunner<4>(stimulus, wrong_loopbacks, 2),
               std::invalid_argument);
}

// ---- 64-lane engine-style passes against the flat oracle ----------------------

/// Resumed, incremental 64-lane passes on WideReplayRunner<1>, sliced like
/// the engine's (its job order, 64 lanes per pass), against the flat
/// run_testbench() oracle replaying the same 64 injections from reset: every
/// lane's frames must agree, delivery cycles included, with the lanes the
/// golden-relative monitor flags as golden read from the golden frames.
/// (The engine's 64x1 counters are pinned in test_lane_width.cpp.)
void check_wide_matches_flat(const netlist::Netlist& nl, const sim::Testbench& tb) {
  const fault::CampaignEngine engine(nl, tb);
  const sim::GoldenCheckpoints& ckpts = engine.checkpoints();
  ASSERT_EQ(ckpts.interface_tape.size(), tb.stimulus.num_cycles());
  fault::CampaignConfig config;
  config.injections_per_ff = 8;
  const auto ffs = nl.flip_flops();
  std::vector<std::size_t> subset;
  for (std::size_t i = 0; i < ffs.size(); i += 5) subset.push_back(i);
  std::vector<sim::LaneInjection> jobs;
  for (const fault::CampaignJob& job :
       fault::order_campaign_jobs(config, tb, subset, ckpts.interval,
                                  sim::HoldLinks{})) {
    jobs.push_back({ffs[subset[job.task]], job.cycle, 0});
  }

  const sim::CompiledStimulus stimulus(nl, tb);
  sim::WideReplayRunner<1> wide(stimulus, ckpts);
  std::size_t golden_lanes = 0;
  std::size_t diverged_lanes = 0;
  for (std::size_t begin = 0; begin < jobs.size(); begin += 5 * sim::kNumLanes) {
    const std::size_t end = std::min(jobs.size(), begin + sim::kNumLanes);
    std::vector<sim::InjectionEvent> flat_events;
    std::vector<sim::LaneInjection> wide_events;
    for (std::size_t j = begin; j < end; ++j) {
      sim::LaneInjection ev = jobs[j];
      ev.lane = static_cast<std::uint32_t>(j - begin);
      wide_events.push_back(ev);
      flat_events.push_back({ev.ff_cell, ev.cycle, sim::Lanes{1} << ev.lane});
    }
    const sim::RunResult want = sim::run_testbench(nl, tb, flat_events);
    SCOPED_TRACE("pass at job " + std::to_string(begin));
    const sim::RunResult got = wide.run(wide_events);
    EXPECT_LE(got.ff_block_ticks, got.cycles_simulated * ffs.size());
    ASSERT_EQ(got.lane_frames.size(), sim::kNumLanes);
    ASSERT_EQ(got.lane_is_golden.size(), sim::kNumLanes);
    for (std::size_t lane = 0; lane < sim::kNumLanes; ++lane) {
      const bool is_golden = got.lane_is_golden[lane] != 0;
      ++(is_golden ? golden_lanes : diverged_lanes);
      if (is_golden) {
        EXPECT_TRUE(got.lane_frames[lane].empty()) << "lane " << lane;
      }
      const sim::FrameList& a = want.lane_frames[lane];
      const sim::FrameList b = sim::lane_frames(got, engine.golden().frames, lane);
      ASSERT_EQ(a.size(), b.size()) << "lane " << lane;
      for (std::size_t f = 0; f < a.size(); ++f) {
        EXPECT_EQ(a[f].bytes, b[f].bytes) << "lane " << lane << " frame " << f;
        EXPECT_EQ(a[f].err, b[f].err) << "lane " << lane << " frame " << f;
        EXPECT_EQ(a[f].end_cycle, b[f].end_cycle) << "lane " << lane << " frame " << f;
      }
    }
  }
  // Both monitor paths ran: lanes that stayed on golden and lanes that left.
  EXPECT_GT(golden_lanes, 0u);
  EXPECT_GT(diverged_lanes, 0u);
}

TEST(WideMatchesFlat, ResumedIncrementalPassesOnRelay) {
  const circuits::RelayCore relay = circuits::build_relay_core();
  const circuits::RelayTestbench bench = circuits::build_relay_testbench(relay);
  check_wide_matches_flat(relay.netlist, bench.tb);
}

TEST(WideMatchesFlat, ResumedIncrementalPassesOnMac) {
  const circuits::MacCore mac = circuits::build_mac_core();
  const circuits::MacTestbench bench = circuits::build_mac_testbench(mac);
  check_wide_matches_flat(mac.netlist, bench.tb);
}

// ---- engine-level differential against the flat campaign ---------------------

void expect_bit_identical(const fault::CampaignResult& a,
                          const fault::CampaignResult& b) {
  ASSERT_EQ(a.per_ff.size(), b.per_ff.size());
  for (std::size_t i = 0; i < a.per_ff.size(); ++i) {
    EXPECT_EQ(a.per_ff[i].ff_index, b.per_ff[i].ff_index) << "ff " << i;
    EXPECT_EQ(a.per_ff[i].classes.counts, b.per_ff[i].classes.counts)
        << "ff " << i << " (" << a.per_ff[i].name << ")";
  }
  const auto fdr_a = a.fdr_vector();
  const auto fdr_b = b.fdr_vector();
  ASSERT_EQ(fdr_a.size(), fdr_b.size());
  for (std::size_t i = 0; i < fdr_a.size(); ++i) {
    EXPECT_EQ(fdr_a[i], fdr_b[i]) << "ff " << i;
  }
  EXPECT_EQ(a.total_injections, b.total_injections);
}

struct MacIncrementalFixture : public ::testing::Test {
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
    engine = new fault::CampaignEngine(mac->netlist, bench->tb);
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
  static fault::CampaignEngine* engine;
};

circuits::MacCore* MacIncrementalFixture::mac = nullptr;
circuits::MacTestbench* MacIncrementalFixture::bench = nullptr;
fault::CampaignEngine* MacIncrementalFixture::engine = nullptr;

TEST_F(MacIncrementalFixture, MatchesFlatAcrossThreads) {
  fault::CampaignConfig base;
  base.injections_per_ff = 24;
  for (std::size_t i = 0; i < mac->netlist.num_flip_flops(); i += 11) {
    base.ff_subset.push_back(i);
  }
  const fault::CampaignResult flat =
      fault::run_campaign(mac->netlist, bench->tb, engine->golden(), base);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    fault::CampaignConfig config = base;
    config.num_threads = threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_bit_identical(flat, engine->run(config));
  }
}

TEST_F(MacIncrementalFixture, CheckpointedReplaySimulatesFewerCyclesAndOps) {
  fault::CampaignConfig config;
  config.injections_per_ff = 32;
  for (std::size_t i = 0; i < mac->netlist.num_flip_flops(); i += 7) {
    config.ff_subset.push_back(i);
  }
  config.lane_width = sim::LaneWidth::k64;
  const fault::CampaignResult flat =
      fault::run_campaign(mac->netlist, bench->tb, engine->golden(), config);
  const fault::CampaignResult engine_result = engine->run(config);
  expect_bit_identical(flat, engine_result);

  // The injection window opens after cycle 0, so sorted lane packing must
  // let most passes skip a prefix, and dirty-set evaluation must visit far
  // fewer ops than the full-sweep replay of the same passes from reset.
  EXPECT_GT(engine_result.checkpoint_restores, 0u);
  EXPECT_LT(engine_result.cycles_simulated,
            engine_result.total_sim_passes * bench->tb.stimulus.num_cycles());
  EXPECT_LT(engine_result.ops_evaluated,
            engine_result.cycles_simulated * mac->netlist.num_cells());
  EXPECT_GT(engine_result.checkpoint_bytes, 0u);
  EXPECT_EQ(engine_result.checkpoint_bytes,
            engine->checkpoints().memory_bytes());
}

/// The first `cycles` cycles of `tb`, injecting in [inject_begin, inject_end).
sim::Testbench cut_testbench(const sim::Testbench& tb, std::size_t cycles,
                             std::size_t inject_begin, std::size_t inject_end) {
  sim::Testbench cut = tb;
  cut.stimulus = sim::Stimulus(tb.stimulus.num_inputs(), cycles);
  for (std::size_t pi = 0; pi < tb.stimulus.num_inputs(); ++pi) {
    for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
      cut.stimulus.set(pi, cycle, tb.stimulus.get(pi, cycle));
    }
  }
  cut.inject_begin = inject_begin;
  cut.inject_end = inject_end;
  return cut;
}

TEST(ShortTestbench, DefaultConfigMatchesFlatBelowTheCheckpointInterval) {
  // A testbench shorter than kCheckpointInterval: the engine records at the
  // clamped interval (one snapshot at cycle 0) and the default config runs.
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core);
  const sim::Testbench tb = cut_testbench(bench.tb, 12, 1, 10);
  ASSERT_LT(tb.stimulus.num_cycles(), fault::kCheckpointInterval);
  const fault::CampaignEngine engine(core.netlist, tb);
  EXPECT_EQ(engine.checkpoints().interval, 12u);
  EXPECT_EQ(engine.checkpoints().snapshots.size(), 1u);

  const fault::CampaignConfig config;
  const fault::CampaignResult flat =
      fault::run_campaign(core.netlist, tb, engine.golden(), config);
  const fault::CampaignResult result = engine.run(config);
  expect_bit_identical(flat, result);
  EXPECT_EQ(result.checkpoint_restores, 0u);  // the only snapshot is cycle 0
}

TEST(ShortTestbench, ZeroCycleTestbenchIsRejectedByName) {
  // The constructor records nothing on a zero-cycle testbench; run() must
  // say so instead of replaying against a missing golden recording, even
  // when the injection window itself is non-empty.
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core);
  const sim::Testbench tb = cut_testbench(bench.tb, 0, 0, 4);
  const fault::CampaignEngine engine(core.netlist, tb);
  EXPECT_TRUE(engine.checkpoints().snapshots.empty());
  try {
    (void)engine.run();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("zero cycles"), std::string::npos)
        << e.what();
  }
}

TEST(PipelineIncremental, DefaultModeMatchesFlat) {
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core);
  fault::CampaignEngine engine(core.netlist, bench.tb);
  fault::CampaignConfig config;
  config.injections_per_ff = 32;
  const fault::CampaignResult flat =
      fault::run_campaign(core.netlist, bench.tb, engine.golden(), config);
  const fault::CampaignResult incremental = engine.run(config);
  expect_bit_identical(flat, incremental);
  EXPECT_LT(incremental.cycles_simulated, flat.cycles_simulated);
  EXPECT_LT(incremental.ops_evaluated, flat.ops_evaluated);
}

}  // namespace
}  // namespace ffr
