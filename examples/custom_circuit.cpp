// Bring your own circuit: build a small serial-protocol design directly with
// the netlist builder + RTL lowering API, write a testbench for it, run a
// fault-injection campaign, extract the paper's features, and export the
// netlist as structural Verilog.
//
// The design: an 8-bit "frame sender" — bytes are written into a 4-entry
// FIFO, a serializer shifts each byte out LSB-first after a start bit, and a
// parity bit is appended (a minimal UART-style TX).
//
//   ./build/examples/custom_circuit

#include <cstdio>

#include "fault/engine.hpp"
#include "features/extractor.hpp"
#include "netlist/builder.hpp"
#include "netlist/verilog_writer.hpp"
#include "rtl/arith.hpp"
#include "rtl/fifo.hpp"
#include "rtl/fsm.hpp"
#include "rtl/sequential.hpp"
#include "rtl/word.hpp"
#include "sim/runner.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace ffr;
  using netlist::NetId;

  // ---- 1. the design ---------------------------------------------------------
  netlist::NetlistBuilder bld("uart_tx");
  const NetId wr = bld.input("wr");
  const auto din = bld.input_bus("din", 8);

  enum State : std::size_t { kIdle, kStart, kShift, kParity, kNumStates };
  const NetId fifo_rd = bld.forward_wire("fifo_rd");
  const NetId bit_en = bld.forward_wire("bit_en");
  const NetId bit_clr = bld.forward_wire("bit_clr");

  rtl::Fifo fifo = rtl::make_fifo(bld, "txq", din, 2, wr, fifo_rd);
  const NetId not_empty = bld.inv(fifo.empty);
  rtl::Counter bit_cnt = rtl::make_counter_clear(bld, "bit_cnt", 3, bit_en, bit_clr);
  const NetId last_bit = rtl::equals_const(bld, bit_cnt.reg.q, 7);

  rtl::FsmBuilder fsm_b(bld, "tx_fsm", kNumStates, kIdle);
  fsm_b.transition(kIdle, kStart, not_empty);
  fsm_b.transition(kStart, kShift, bld.constant(true));
  fsm_b.transition(kShift, kParity, last_bit);
  fsm_b.transition(kParity, kIdle, bld.constant(true));
  rtl::Fsm fsm = fsm_b.build();

  bld.bind_forward_wire(fifo_rd, fsm.in_state(kStart));  // pop head on start
  bld.bind_forward_wire(bit_en, fsm.in_state(kShift));
  bld.bind_forward_wire(bit_clr, fsm.in_state(kIdle));

  // Shift register: loaded from the FIFO head while in START, shifts in SHIFT.
  const NetId load = fsm.in_state(kStart);
  const rtl::Word head = rtl::word_slice(fifo.dout, 0, 8);
  std::vector<NetId> shift_d = bld.forward_wires("shift_d", 8);
  rtl::Register shifter;
  {
    netlist::RegisterBus bus;
    bus.name = "shift_reg";
    for (std::size_t i = 0; i < 8; ++i) {
      netlist::FlipFlop ff =
          bld.dff(shift_d[i], false, "shift_reg[" + std::to_string(i) + "]");
      bus.flip_flops.push_back(ff.cell);
      shifter.ffs.push_back(ff);
      shifter.q.push_back(ff.q);
    }
    bld.add_register_bus(std::move(bus));
  }
  for (std::size_t i = 0; i < 8; ++i) {
    const NetId shifted = i + 1 < 8 ? shifter.q[i + 1] : bld.constant(false);
    const NetId hold_or_shift =
        bld.mux2(shifter.q[i], shifted, fsm.in_state(kShift));
    bld.bind_forward_wire(shift_d[i], bld.mux2(hold_or_shift, head[i], load));
  }

  // Running parity over the shifted-out bits; cleared while loading.
  const netlist::FlipFlop parity = bld.dff_loop(
      [&](NetId q) {
        const NetId accumulated =
            bld.mux2(q, bld.xor2(q, shifter.q[0]), fsm.in_state(kShift));
        return bld.and2(accumulated, bld.inv(load));
      },
      false, "parity_acc");

  // Serial output: start bit in START, data bit in SHIFT, parity in PARITY.
  const NetId data_or_parity =
      bld.mux2(shifter.q[0], parity.q, fsm.in_state(kParity));
  const NetId tx_bit = bld.or2(fsm.in_state(kStart),
                               bld.and2(data_or_parity, bld.inv(load)));
  const NetId tx_valid = bld.inv(fsm.in_state(kIdle));
  bld.output(tx_bit, "tx_bit");
  bld.output(tx_valid, "tx_valid");
  const netlist::Netlist nl = bld.build();
  std::printf("design : %s\n", nl.summary().c_str());

  // ---- 2. export as structural Verilog ----------------------------------------
  netlist::write_verilog_file("uart_tx.v", nl);
  std::printf("verilog: wrote uart_tx.v (%zu cells)\n", nl.num_cells());

  // ---- 3. a testbench ----------------------------------------------------------
  // Write 6 bytes with gaps; monitor the serial stream as 1-bit frames.
  const std::uint8_t payload[] = {0xA5, 0x3C, 0x01, 0xFF, 0x80, 0x7E};
  const std::size_t cycles = 160;
  sim::Stimulus stim(nl.primary_inputs().size(), cycles);
  const auto pi = [&](NetId net) {
    return static_cast<std::size_t>(nl.net(net).pi_index);
  };
  for (std::size_t i = 0; i < std::size(payload); ++i) {
    const std::size_t c = 2 + 14 * i;  // slower than the 11-cycle drain rate
    stim.set(pi(wr), c, true);
    for (std::size_t b = 0; b < 8; ++b) {
      stim.set(pi(din[b]), c, ((payload[i] >> b) & 1u) != 0);
    }
  }
  sim::Testbench tb;
  tb.stimulus = std::move(stim);
  tb.monitor.valid = tx_valid;
  tb.monitor.sop = tx_valid;
  // Frame delimiting is approximate for this demo: `wr` pulses act as end
  // markers. The stimulus is identical in every lane, so golden and faulty
  // runs see the same framing and comparisons stay exact.
  tb.monitor.eop = wr;
  tb.monitor.err = wr;
  tb.monitor.data = {tx_bit};
  tb.inject_begin = 2;
  tb.inject_end = cycles - 20;

  // The campaign engine runs the golden simulation once and replays every
  // fault pass against it.
  const fault::CampaignEngine engine(nl, tb);
  const sim::GoldenResult& golden = engine.golden();
  std::printf("golden : %zu serial bursts observed\n\n", golden.frames.size());

  // ---- 4. fault-injection campaign + features ----------------------------------
  fault::CampaignConfig config;
  config.injections_per_ff = 48;
  const fault::CampaignResult campaign = engine.run(config);
  for (const std::string& warning : campaign.warnings) {
    std::printf("warning: %s\n", warning.c_str());
  }
  const features::FeatureMatrix fm =
      features::extract_features(nl, golden.activity);

  util::TablePrinter table({"flip-flop", "FDR", "state changes", "fan-in",
                            "feedback loop"});
  const auto ffs = nl.flip_flops();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    table.add_row(
        {nl.cell(ffs[i]).name,
         util::TablePrinter::format(campaign.per_ff[i].fdr(), 3),
         util::TablePrinter::format(
             fm.values(i, features::index_of(features::Feature::kStateChanges)), 0),
         util::TablePrinter::format(
             fm.values(i, features::index_of(features::Feature::kFfFanIn)), 0),
         fm.values(i, features::index_of(features::Feature::kHasFeedbackLoop)) > 0
             ? "yes"
             : "no"});
  }
  table.print();
  return 0;
}
