// Tests for src/sim: packed-lane semantics, fault injection mechanics,
// testbench runner (stimulus, loopback, monitor, activity tracing), the
// golden run against the flat oracle, and testbench validation.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "circuits/pipeline_core.hpp"
#include "fault/engine.hpp"
#include "netlist/builder.hpp"
#include "rtl/sequential.hpp"
#include "rtl/word.hpp"
#include "sim/packed_sim.hpp"
#include "sim/runner.hpp"

namespace ffr::sim {
namespace {

using netlist::FlipFlop;
using netlist::NetId;
using netlist::Netlist;
using netlist::NetlistBuilder;

TEST(PackedSim, RequiresFinalizedNetlist) {
  Netlist nl("t");
  EXPECT_THROW(PackedSimulator{nl}, std::invalid_argument);
}

TEST(PackedSim, LanesAreIndependent) {
  NetlistBuilder bld("t");
  const NetId a = bld.input("a");
  const NetId b = bld.input("b");
  const NetId y = bld.xor2(a, b);
  bld.output(y, "y");
  const Netlist nl = bld.build();
  PackedSimulator simulator(nl);
  simulator.set_input(a, 0b1100);
  simulator.set_input(b, 0b1010);
  simulator.eval();
  EXPECT_EQ(simulator.value(y) & 0xF, 0b0110u);
}

TEST(PackedSim, ResetRestoresInitValues) {
  NetlistBuilder bld("t");
  const NetId d = bld.input("d");
  FlipFlop ff = bld.dff(d, true, "r");
  bld.output(ff.q, "y");
  const Netlist nl = bld.build();
  PackedSimulator simulator(nl);
  EXPECT_EQ(simulator.ff_state(ff.cell), kAllLanes);
  simulator.set_input_broadcast(d, false);
  simulator.eval();
  simulator.tick();
  EXPECT_EQ(simulator.ff_state(ff.cell), 0u);
  simulator.reset();
  EXPECT_EQ(simulator.ff_state(ff.cell), kAllLanes);
}

TEST(PackedSim, InjectFlipsOnlyMaskedLanes) {
  NetlistBuilder bld("t");
  const NetId d = bld.input("d");
  FlipFlop ff = bld.dff(d, false, "r");
  const NetId y = bld.buf(ff.q);
  bld.output(y, "y");
  const Netlist nl = bld.build();
  PackedSimulator simulator(nl);
  simulator.inject(ff.cell, 0b101);
  simulator.eval();
  EXPECT_EQ(simulator.value(y), 0b101u);
  // Injection is a state flip: injecting again reverts.
  simulator.inject(ff.cell, 0b001);
  simulator.eval();
  EXPECT_EQ(simulator.value(y), 0b100u);
}

TEST(PackedSim, InjectOnNonFlipFlopThrows) {
  NetlistBuilder bld("t");
  const NetId a = bld.input("a");
  const NetId y = bld.inv(a);
  bld.output(y, "y");
  const Netlist nl = bld.build();
  PackedSimulator simulator(nl);
  const netlist::CellId inv_cell = nl.net(y).driver;
  EXPECT_THROW(simulator.inject(inv_cell, 1), std::invalid_argument);
}

TEST(PackedSim, SetInputRejectsInternalNet) {
  NetlistBuilder bld("t");
  const NetId a = bld.input("a");
  const NetId y = bld.inv(a);
  bld.output(y, "y");
  const Netlist nl = bld.build();
  PackedSimulator simulator(nl);
  EXPECT_THROW(simulator.set_input(y, 1), std::invalid_argument);
}

TEST(PackedSim, FaultPropagatesThroughPipeline) {
  // Three-stage pipeline of a single bit; a flip in stage 0 must appear at
  // the output exactly 2 cycles later and then clear.
  NetlistBuilder bld("t");
  const NetId d = bld.input("d");
  FlipFlop s0 = bld.dff(d, false, "s0");
  FlipFlop s1 = bld.dff(s0.q, false, "s1");
  FlipFlop s2 = bld.dff(s1.q, false, "s2");
  bld.output(s2.q, "y");
  const Netlist nl = bld.build();
  PackedSimulator simulator(nl);
  simulator.set_input_broadcast(d, false);
  simulator.inject(s0.cell, 0b1);
  for (int cycle = 0; cycle < 4; ++cycle) {
    simulator.eval();
    const bool expect_seen = cycle == 2;
    EXPECT_EQ(simulator.value_in_lane(s2.q, 0), expect_seen) << cycle;
    simulator.tick();
  }
}

// ---- runner ------------------------------------------------------------------

// A 1-byte "echo" DUT: input byte + valid; output = registered input, with a
// sop/eop framing so the monitor can extract frames. eop entries carry data
// here (unlike the MAC) — the monitor must treat them as end markers.
struct EchoDut {
  Netlist netlist{"echo"};
  NetId in_valid, in_sop, in_eop;
  std::vector<NetId> in_data;
  PacketMonitorSpec monitor;
  netlist::CellId data_ff0 = netlist::kNoCell;
};

EchoDut build_echo() {
  EchoDut dut;
  NetlistBuilder bld("echo");
  dut.in_valid = bld.input("valid");
  dut.in_sop = bld.input("sop");
  dut.in_eop = bld.input("eop");
  dut.in_data = bld.input_bus("data", 8);
  rtl::Register data_r = rtl::make_register(bld, "data_r", dut.in_data);
  rtl::Register valid_r =
      rtl::make_register(bld, "valid_r", std::vector<NetId>{dut.in_valid});
  rtl::Register sop_r =
      rtl::make_register(bld, "sop_r", std::vector<NetId>{dut.in_sop});
  rtl::Register eop_r =
      rtl::make_register(bld, "eop_r", std::vector<NetId>{dut.in_eop});
  bld.output_bus(data_r.q, "out_data");
  bld.output(valid_r.q[0], "out_valid");
  bld.output(sop_r.q[0], "out_sop");
  bld.output(eop_r.q[0], "out_eop");
  dut.monitor.valid = valid_r.q[0];
  dut.monitor.sop = sop_r.q[0];
  dut.monitor.eop = eop_r.q[0];
  dut.monitor.data = data_r.q;
  dut.data_ff0 = data_r.ffs[0].cell;
  // No err signal in this DUT: reuse a constant-0 net.
  dut.monitor.err = bld.constant(false);
  dut.netlist = bld.build();
  return dut;
}

Testbench echo_testbench(const EchoDut& dut,
                         const std::vector<std::vector<std::uint8_t>>& frames) {
  const auto& nl = dut.netlist;
  std::size_t cycles = 4;
  for (const auto& f : frames) cycles += f.size() + 3;  // +1 eop marker + gap
  Stimulus stim(nl.primary_inputs().size(), cycles);
  const auto pi = [&](NetId net) {
    return static_cast<std::size_t>(nl.net(net).pi_index);
  };
  std::size_t c = 2;
  for (const auto& frame : frames) {
    for (std::size_t i = 0; i < frame.size(); ++i) {
      stim.set(pi(dut.in_valid), c, true);
      stim.set(pi(dut.in_sop), c, i == 0);
      for (std::size_t b = 0; b < 8; ++b) {
        stim.set(pi(dut.in_data[b]), c, ((frame[i] >> b) & 1) != 0);
      }
      ++c;
    }
    // End marker entry (no payload).
    stim.set(pi(dut.in_valid), c, true);
    stim.set(pi(dut.in_eop), c, true);
    c += 3;
  }
  Testbench tb;
  tb.stimulus = std::move(stim);
  tb.monitor = dut.monitor;
  tb.inject_begin = 0;
  tb.inject_end = cycles;
  return tb;
}

TEST(Runner, GoldenEchoExtractsFrames) {
  const EchoDut dut = build_echo();
  const std::vector<std::vector<std::uint8_t>> frames = {
      {0x01, 0x02, 0x03}, {0xAA}, {0x10, 0x20, 0x30, 0x40}};
  const Testbench tb = echo_testbench(dut, frames);
  const GoldenResult golden = run_golden(dut.netlist, tb);
  ASSERT_EQ(golden.frames.size(), 3u);
  for (std::size_t f = 0; f < 3; ++f) {
    EXPECT_EQ(golden.frames[f].bytes, frames[f]);
    EXPECT_FALSE(golden.frames[f].err);
  }
}

TEST(Runner, ActivityTraceCountsChanges) {
  const EchoDut dut = build_echo();
  const std::vector<std::vector<std::uint8_t>> frames = {{0xFF, 0x00, 0xFF}};
  const Testbench tb = echo_testbench(dut, frames);
  const GoldenResult golden = run_golden(dut.netlist, tb);
  EXPECT_EQ(golden.activity.total_cycles, tb.stimulus.num_cycles());
  // data_r bit 0 goes 0 ->1 -> 0 -> 1 -> 0 over the run: 4 changes.
  const auto ffs = dut.netlist.flip_flops();
  std::size_t ff_index = ffs.size();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (ffs[i] == dut.data_ff0) ff_index = i;
  }
  ASSERT_LT(ff_index, ffs.size());
  EXPECT_EQ(golden.activity.state_changes[ff_index], 4u);
  EXPECT_GT(golden.activity.cycles_at_1[ff_index], 0u);
}

TEST(Runner, InjectionCorruptsOnlyTargetLanes) {
  const EchoDut dut = build_echo();
  const std::vector<std::vector<std::uint8_t>> frames = {{0x00, 0x00, 0x00}};
  const Testbench tb = echo_testbench(dut, frames);
  // Flip data_r bit 0 at the cycle the second byte is registered, lanes 1+2.
  InjectionEvent ev;
  ev.ff_cell = dut.data_ff0;
  ev.cycle = 4;  // first byte visible at output during cycle 3
  ev.lane_mask = 0b110;
  const RunResult run = run_testbench(dut.netlist, tb, {&ev, 1});
  // Lane 0 clean.
  ASSERT_EQ(run.lane_frames[0].size(), 1u);
  EXPECT_EQ(run.lane_frames[0][0].bytes, frames[0]);
  // Lanes 1 and 2 corrupted somewhere.
  for (const std::size_t lane : {1, 2}) {
    ASSERT_EQ(run.lane_frames[lane].size(), 1u) << lane;
    EXPECT_NE(run.lane_frames[lane][0].bytes, frames[0]) << lane;
  }
  // Lane 3 untouched.
  EXPECT_EQ(run.lane_frames[3][0].bytes, frames[0]);
}

TEST(Runner, InjectionBeyondEndRejected) {
  const EchoDut dut = build_echo();
  const Testbench tb = echo_testbench(dut, {{0x01}});
  InjectionEvent ev;
  ev.ff_cell = dut.data_ff0;
  ev.cycle = static_cast<std::uint32_t>(tb.stimulus.num_cycles());
  ev.lane_mask = 1;
  EXPECT_THROW((void)run_testbench(dut.netlist, tb, {&ev, 1}),
               std::invalid_argument);
}

/// DUT: a = reg(in); loop a -> in2; y = reg(in2). The testbench pulses `in`
/// once and monitors y as a "frame byte" stream: valid = sop = data = y,
/// eop/err = `in` (never high during valid cycles), so the one frame is
/// left open at the end and closed with err set.
struct LoopbackBench {
  Netlist netlist{"loop"};
  Testbench tb;
};

LoopbackBench build_loopback_bench() {
  NetlistBuilder bld("loop");
  const NetId in = bld.input("in");
  const NetId in2 = bld.input("in2");
  rtl::Register a = rtl::make_register(bld, "a", std::vector<NetId>{in});
  rtl::Register b = rtl::make_register(bld, "b", std::vector<NetId>{in2});
  bld.output(a.q[0], "a_out");
  bld.output(b.q[0], "y");
  LoopbackBench bench;
  bench.netlist = bld.build();

  Stimulus stim(bench.netlist.primary_inputs().size(), 8);
  stim.set(0, 1, true);  // pulse on `in` at cycle 1
  Testbench& tb = bench.tb;
  tb.stimulus = stim;
  tb.loopbacks.push_back({a.q[0], in2, false});
  tb.monitor.valid = b.q[0];
  tb.monitor.sop = b.q[0];
  tb.monitor.eop = bench.netlist.primary_inputs()[0];
  tb.monitor.err = bench.netlist.primary_inputs()[0];
  tb.monitor.data = {b.q[0]};
  tb.inject_end = 8;
  return bench;
}

TEST(Runner, LoopbackFeedsOutputBackToInput) {
  const LoopbackBench bench = build_loopback_bench();
  const RunResult run = run_testbench(bench.netlist, bench.tb);
  // y pulses exactly once: in@1 -> a@2 -> loop captured end of cycle 2 ->
  // in2@3 -> y@4... frame extraction sees one 1-byte frame (left open).
  ASSERT_EQ(run.lane_frames[0].size(), 1u);
  EXPECT_EQ(run.lane_frames[0][0].bytes.size(), 1u);
  EXPECT_TRUE(run.lane_frames[0][0].err);
}

/// The golden run and the flat oracle's lane 0 see the same frames (delivery
/// cycles included) after the same number of sweeps, reset sweep included.
void expect_golden_matches_flat(const Netlist& nl, const Testbench& tb) {
  const GoldenResult golden = run_golden(nl, tb);
  const RunResult flat = run_testbench(nl, tb);
  const FrameList& want = flat.lane_frames[0];
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(golden.frames.size(), want.size());
  for (std::size_t f = 0; f < want.size(); ++f) {
    EXPECT_EQ(golden.frames[f].bytes, want[f].bytes) << "frame " << f;
    EXPECT_EQ(golden.frames[f].err, want[f].err) << "frame " << f;
    EXPECT_EQ(golden.frames[f].end_cycle, want[f].end_cycle) << "frame " << f;
  }
  EXPECT_EQ(golden.eval_count, flat.eval_count);
}

TEST(GoldenRun, MatchesFlatOracleOnPipeline) {
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core);
  expect_golden_matches_flat(core.netlist, bench.tb);
}

TEST(GoldenRun, MatchesFlatOracleWithFrameOpenAtEnd) {
  const LoopbackBench bench = build_loopback_bench();
  expect_golden_matches_flat(bench.netlist, bench.tb);
}

TEST(Testbench, ValidationRejectsUnboundNetsAtEveryEntryPoint) {
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core, 24);
  const Netlist& nl = core.netlist;
  const NetId none = netlist::kNoNet;
  const NetId outside = static_cast<NetId>(nl.num_nets());
  const NetId net = bench.tb.monitor.valid;
  std::vector<std::pair<std::string, Testbench>> cases;
  const auto bad = [&](const char* role, const auto& mutate) {
    Testbench tb = bench.tb;
    mutate(tb);
    cases.emplace_back(role, std::move(tb));
  };
  bad("monitor valid", [&](Testbench& tb) { tb.monitor.valid = none; });
  bad("monitor sop", [&](Testbench& tb) { tb.monitor.sop = none; });
  bad("monitor eop", [&](Testbench& tb) { tb.monitor.eop = outside; });
  bad("monitor err", [&](Testbench& tb) { tb.monitor.err = none; });
  bad("monitor err", [&](Testbench& tb) { tb.monitor.err = outside; });
  bad("monitor data", [&](Testbench& tb) { tb.monitor.data.clear(); });
  bad("monitor data", [&](Testbench& tb) { tb.monitor.data.assign(9, net); });
  bad("monitor data", [&](Testbench& tb) { tb.monitor.data[0] = none; });
  bad("loopback source",
      [&](Testbench& tb) { tb.loopbacks.push_back({none, net, false}); });
  bad("loopback target",
      [&](Testbench& tb) { tb.loopbacks.push_back({net, outside, false}); });

  for (const auto& [role, tb] : cases) {
    SCOPED_TRACE(role);
    try {
      validate_testbench(nl, tb);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(role), std::string::npos) << e.what();
    }
    EXPECT_THROW((void)run_golden(nl, tb), std::invalid_argument);
    EXPECT_THROW(fault::CampaignEngine(nl, tb), std::invalid_argument);
    EXPECT_THROW((void)run_testbench(nl, tb), std::invalid_argument);
  }
  EXPECT_NO_THROW(validate_testbench(nl, bench.tb));
}

}  // namespace
}  // namespace ffr::sim
