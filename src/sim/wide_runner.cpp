#include "sim/wide_runner.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace ffr::sim {

namespace {

/// One lane's frame extraction, with the frame rules of the flat oracle's
/// PacketMonitor (runner.cpp). The golden run's lane and every fault lane
/// that left golden step one of these.
struct FrameState {
  FrameList frames;
  Frame current;
  bool open = false;

  /// One valid cycle of this lane.
  void step(bool sop, bool eop, bool err, std::uint8_t byte, std::size_t cycle) {
    if (eop) {
      // End marker: close the open frame (or record a headless end).
      current.err = err;
      current.end_cycle = cycle;
      frames.push_back(std::move(current));
      current = Frame{};
      open = false;
      return;
    }
    if (sop) {
      if (open) {
        // Truncated previous frame (no end marker): emit as errored.
        current.err = true;
        current.end_cycle = cycle;
        frames.push_back(std::move(current));
        current = Frame{};
      }
      open = true;
    }
    current.bytes.push_back(byte);
  }

  /// One cycle of an interface sample in GoldenCheckpoints::interface_tape
  /// form.
  void observe(std::uint16_t sample, std::size_t cycle) {
    if ((sample & GoldenCheckpoints::kTapeValid) == 0) return;
    step((sample & GoldenCheckpoints::kTapeSop) != 0,
         (sample & GoldenCheckpoints::kTapeEop) != 0,
         (sample & GoldenCheckpoints::kTapeErr) != 0,
         static_cast<std::uint8_t>(sample >> 8), cycle);
  }

  /// The lane's frames at the end of simulation.
  FrameList finish() {
    if (open && !current.bytes.empty()) {
      // Frame left open at end of simulation: the circuit stopped
      // delivering data mid-frame.
      current.err = true;
      frames.push_back(std::move(current));
    }
    return std::move(frames);
  }
};

/// Lanes of block `blk` whose interface observation this cycle differs from
/// the golden tape sample `golden`: valid differs, or both are valid and a
/// marker or data bit differs. Only those lanes can build a frame stream
/// other than golden's.
template <std::size_t W>
LaneBlock<W> interface_diff(const WideSimulator<W>& sim, const PacketMonitorSpec& spec,
                            std::uint16_t golden, std::size_t blk) {
  using Block = LaneBlock<W>;
  const auto splat = [&](std::uint16_t flag) {
    return (golden & flag) != 0 ? Block::ones() : Block::zero();
  };
  Block differ = sim.value(spec.valid, blk) ^ splat(GoldenCheckpoints::kTapeValid);
  if ((golden & GoldenCheckpoints::kTapeValid) != 0) {
    differ |= sim.value(spec.sop, blk) ^ splat(GoldenCheckpoints::kTapeSop);
    differ |= sim.value(spec.eop, blk) ^ splat(GoldenCheckpoints::kTapeEop);
    differ |= sim.value(spec.err, blk) ^ splat(GoldenCheckpoints::kTapeErr);
    for (std::size_t b = 0; b < spec.data.size(); ++b) {
      differ |= sim.value(spec.data[b], blk) ^
                splat(static_cast<std::uint16_t>(1u << (8 + b)));
    }
  }
  return differ;
}

/// Golden-relative per-lane frame extraction over `blocks` lane blocks: lane
/// L of word w in block b is global lane b * W * 64 + w * 64 + L. Per-lane
/// frame state is kept only for lanes whose monitored nets have differed
/// from the golden interface tape. One golden lane state advances on the
/// tape in lockstep; a lane takes over its open frame the cycle it first
/// diverges and records how many golden frames were complete by then, which
/// is exactly the state that lane would have built itself, since every
/// earlier observation equalled golden's. The completed golden frames stay
/// shared (RunResult::lane_golden_prefix), never copied per lane.
template <std::size_t W>
class WidePacketMonitor {
 public:
  using Block = LaneBlock<W>;

  /// Every lane starts on the golden progress at `snap`: the golden frames
  /// completed before it and the bytes of the frame in flight.
  WidePacketMonitor(const PacketMonitorSpec& spec, const GoldenCheckpoints& ckpts,
                    const GoldenCheckpoints::Snapshot& snap, std::size_t blocks)
      : spec_(&spec),
        tape_(ckpts.interface_tape),
        golden_completed_(snap.frames_completed),
        lanes_(blocks * Block::kLanes),
        lane_prefix_(blocks * Block::kLanes, 0),
        diverged_(blocks, Block::zero()) {
    golden_.current.bytes = snap.open_bytes;
    golden_.open = snap.frame_open;
  }

  void observe(const WideSimulator<W>& simulator, std::size_t cycle) {
    const std::uint16_t golden = tape_[cycle];
    for (std::size_t blk = 0; blk < diverged_.size(); ++blk) {
      const Block fresh =
          interface_diff(simulator, *spec_, golden, blk) & ~diverged_[blk];
      for (std::size_t w = 0; w < W; ++w) {
        for (std::uint64_t bits = fresh.word(w); bits != 0; bits &= bits - 1) {
          const std::size_t lane = blk * Block::kLanes + w * 64 +
                                   static_cast<std::size_t>(std::countr_zero(bits));
          lanes_[lane].current = golden_.current;
          lanes_[lane].open = golden_.open;
          lane_prefix_[lane] = golden_completed_;
        }
      }
      diverged_[blk] |= fresh;
      observe_lanes(simulator, blk, simulator.value(spec_->valid, blk) & diverged_[blk],
                    cycle);
    }
    golden_.observe(golden, cycle);
    golden_completed_ += golden_.frames.size();
    golden_.frames.clear();
  }

  /// From `cycle` on, every lane's interface is the golden tape's: the
  /// lanes that left golden observe the rest of the tape.
  void observe_golden_tail(std::size_t cycle) {
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      if (!diverged_[lane / Block::kLanes].lane(lane % Block::kLanes)) continue;
      for (std::size_t c = cycle; c < tape_.size(); ++c) {
        lanes_[lane].observe(tape_[c], c);
      }
    }
  }

  /// Per-lane frames; never-diverged lanes are flagged in
  /// `result.lane_is_golden` and their frame lists left empty.
  void finish(RunResult& result) {
    result.lane_frames.resize(lanes_.size());
    result.lane_is_golden.assign(lanes_.size(), 0);
    result.lane_golden_prefix = std::move(lane_prefix_);
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      if (diverged_[lane / Block::kLanes].lane(lane % Block::kLanes)) {
        result.lane_frames[lane] = lanes_[lane].finish();
      } else {
        result.lane_is_golden[lane] = 1;
      }
    }
  }

 private:
  /// Steps every lane of block `blk` set in `mask` with its own values.
  void observe_lanes(const WideSimulator<W>& simulator, std::size_t blk,
                     const Block& mask, std::size_t cycle) {
    if (!any(mask)) return;
    const Block& sop = simulator.value(spec_->sop, blk);
    const Block& eop = simulator.value(spec_->eop, blk);
    const Block& err = simulator.value(spec_->err, blk);
    const Block* data_bits[8] = {};
    for (std::size_t b = 0; b < spec_->data.size(); ++b) {
      data_bits[b] = &simulator.value(spec_->data[b], blk);
    }
    for (std::size_t w = 0; w < W; ++w) {
      for (std::uint64_t remaining = mask.word(w); remaining != 0;
           remaining &= remaining - 1) {
        const int lane = std::countr_zero(remaining);
        const std::uint64_t bit = std::uint64_t{1} << lane;
        std::uint8_t byte = 0;
        for (std::size_t b = 0; b < spec_->data.size(); ++b) {
          if (data_bits[b]->word(w) & bit) byte |= static_cast<std::uint8_t>(1u << b);
        }
        lanes_[blk * Block::kLanes + w * 64 + static_cast<std::size_t>(lane)].step(
            (sop.word(w) & bit) != 0, (eop.word(w) & bit) != 0,
            (err.word(w) & bit) != 0, byte, cycle);
      }
    }
  }

  const PacketMonitorSpec* spec_;
  std::span<const std::uint16_t> tape_;
  // The golden lane: its open frame, and how many golden frames are
  // complete (golden_.frames is emptied into the count every cycle).
  FrameState golden_;
  std::size_t golden_completed_;
  // Per global lane; only the lanes set in diverged_ are stepped, and hold
  // only the frames completed after they diverged.
  std::vector<FrameState> lanes_;
  std::vector<std::size_t> lane_prefix_;  // golden frames before divergence
  std::vector<Block> diverged_;  // per block: lanes that have left golden
};

/// Drives cycle `cycle`'s primary inputs into every block, and each
/// loopback's pending value (loopback-major, num_blocks() per loopback) into
/// its block.
template <std::size_t W>
void drive_inputs(WideSimulator<W>& sim, const CompiledStimulus& stimulus,
                  std::size_t cycle, std::span<const LaneBlock<W>> loop_values) {
  const auto pis = stimulus.netlist().primary_inputs();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    sim.set_input(pis[i], LaneBlock<W>::splat(stimulus.input(cycle, i)));
  }
  const std::vector<Loopback>& loopbacks = stimulus.testbench().loopbacks;
  const std::size_t blocks = sim.num_blocks();
  for (std::size_t i = 0; i < loopbacks.size(); ++i) {
    for (std::size_t b = 0; b < blocks; ++b) {
      sim.set_input_block(loopbacks[i].to_input, b, loop_values[i * blocks + b]);
    }
  }
}

/// Captures every loopback's source net, the value it drives next cycle.
template <std::size_t W>
void latch_loopbacks(const WideSimulator<W>& sim, const Testbench& tb,
                     std::span<LaneBlock<W>> loop_values) {
  const std::size_t blocks = sim.num_blocks();
  for (std::size_t i = 0; i < tb.loopbacks.size(); ++i) {
    for (std::size_t b = 0; b < blocks; ++b) {
      loop_values[i * blocks + b] = sim.value(tb.loopbacks[i].from_net, b);
    }
  }
}

}  // namespace

template <std::size_t W>
WideReplayRunner<W>::WideReplayRunner(const CompiledStimulus& stimulus,
                                      const GoldenCheckpoints& golden,
                                      std::size_t blocks)
    : stim_(&stimulus),
      golden_(&golden),
      sim_(stimulus.netlist(), blocks, stimulus.cone().nets) {
  if (golden.interface_tape.size() != stimulus.num_cycles()) {
    throw std::invalid_argument(
        "WideReplayRunner: the golden recording needs a full interface tape");
  }
  if (golden.num_loopbacks != stimulus.testbench().loopbacks.size()) {
    throw std::invalid_argument(
        "WideReplayRunner: checkpoint/testbench loopback mismatch");
  }
  // The simulator keeps the observable flip-flops in flip_flops() order.
  const std::vector<std::uint8_t>& observable = stimulus.cone().flip_flops;
  for (std::size_t i = 0; i < observable.size(); ++i) {
    if (observable[i] != 0) ff_positions_.push_back(i);
  }
}

template <std::size_t W>
bool WideReplayRunner<W>::on_golden(std::size_t snapshot) const {
  const GoldenCheckpoints& ckpts = *golden_;
  const auto ffs = stim_->netlist().flip_flops();
  const std::size_t blocks = sim_.num_blocks();
  const auto splat = [](bool bit) { return bit ? Block::ones() : Block::zero(); };
  for (const std::size_t ff : ff_positions_) {
    const Block want = splat(ckpts.ff_bit(snapshot, ff));
    for (std::size_t b = 0; b < blocks; ++b) {
      if (differs(sim_.ff_state(ffs[ff], b), want)) return false;
    }
  }
  const std::vector<std::uint8_t>& observable = stim_->cone().loopbacks;
  for (std::size_t i = 0; i < observable.size(); ++i) {
    if (observable[i] == 0) continue;
    const Block want = splat(ckpts.loopback_bit(snapshot, i));
    for (std::size_t b = 0; b < blocks; ++b) {
      if (differs(loop_values_[i * blocks + b], want)) return false;
    }
  }
  return true;
}

template <std::size_t W>
void WideReplayRunner<W>::load_golden(std::size_t snapshot) {
  const GoldenCheckpoints& ckpts = *golden_;
  golden_q_.resize(ff_positions_.size());
  for (std::size_t i = 0; i < ff_positions_.size(); ++i) {
    golden_q_[i] = ckpts.ff_bit(snapshot, ff_positions_[i]) ? 1 : 0;
  }
  golden_loop_.resize(ckpts.num_loopbacks);
  for (std::size_t i = 0; i < golden_loop_.size(); ++i) {
    golden_loop_[i] = ckpts.loopback_bit(snapshot, i) ? 1 : 0;
  }
}

template <std::size_t W>
void WideReplayRunner<W>::restore_golden() {
  // Golden state is identical on every lane by construction, so splatting
  // each golden bit across whole blocks puts blocks * W * 64 lanes on it.
  const std::size_t blocks = sim_.num_blocks();
  restore_state_.resize(golden_q_.size() * blocks);
  for (std::size_t i = 0; i < golden_q_.size(); ++i) {
    std::fill_n(restore_state_.begin() + i * blocks, blocks,
                golden_q_[i] != 0 ? Block::ones() : Block::zero());
  }
  sim_.restore_ff_state(restore_state_);
  splat_golden_loopbacks();
}

template <std::size_t W>
void WideReplayRunner<W>::splat_golden_loopbacks() {
  const std::size_t blocks = sim_.num_blocks();
  loop_values_.resize(golden_loop_.size() * blocks);
  for (std::size_t i = 0; i < golden_loop_.size(); ++i) {
    std::fill_n(loop_values_.begin() + i * blocks, blocks,
                golden_loop_[i] != 0 ? Block::ones() : Block::zero());
  }
}

template <std::size_t W>
RunResult WideReplayRunner<W>::run(std::span<const LaneInjection> injections) {
  const Testbench& tb = stim_->testbench();
  const std::size_t num_cycles = stim_->num_cycles();
  const std::size_t blocks = sim_.num_blocks();
  for (const LaneInjection& ev : injections) {
    if (ev.cycle >= num_cycles) {
      throw std::invalid_argument("WideReplayRunner: injection beyond end of run");
    }
    if (ev.lane >= lanes()) {
      throw std::invalid_argument("WideReplayRunner: injection lane out of block");
    }
  }

  // Injection schedule sorted by cycle for a single sweep.
  schedule_.assign(injections.begin(), injections.end());
  std::sort(schedule_.begin(), schedule_.end(),
            [](const LaneInjection& a, const LaneInjection& b) {
              return a.cycle < b.cycle;
            });

  const std::uint64_t evals_before = sim_.eval_count();
  const std::uint64_t ops_before = sim_.ops_evaluated();
  const std::uint64_t ticks_before = sim_.ff_block_ticks();

  // Start point: the latest golden checkpoint not after the first
  // injection, restored on every lane.
  const GoldenCheckpoints& ckpts = *golden_;
  const std::size_t index =
      ckpts.index_at_or_before(schedule_.empty() ? 0 : schedule_.front().cycle);
  const GoldenCheckpoints::Snapshot& snap = ckpts.snapshots[index];
  load_golden(index);
  restore_golden();
  WidePacketMonitor<W> monitor(tb.monitor, ckpts, snap, blocks);

  // Once every injection is in, a checkpoint cycle at which each lane's
  // observable state is golden's ends the pass: from there on the
  // interface can only replay the golden tape.
  const std::size_t stop_from =
      schedule_.empty() ? snap.cycle : schedule_.back().cycle + 1;
  std::size_t next_event = 0;
  std::size_t cycle = snap.cycle;
  for (; cycle < num_cycles; ++cycle) {
    if (cycle >= stop_from && cycle % ckpts.interval == 0 &&
        on_golden(cycle / ckpts.interval)) {
      break;
    }
    drive_inputs<W>(sim_, *stim_, cycle, loop_values_);
    while (next_event < schedule_.size() && schedule_[next_event].cycle == cycle) {
      const std::uint32_t lane = schedule_[next_event].lane;
      sim_.inject(schedule_[next_event].ff_cell,
                  Block::lane_mask(lane % Block::kLanes), lane / Block::kLanes);
      ++next_event;
    }
    sim_.eval_incremental();
    monitor.observe(sim_, cycle);
    latch_loopbacks<W>(sim_, tb, loop_values_);
    sim_.tick();
  }
  monitor.observe_golden_tail(cycle);

  RunResult result;
  monitor.finish(result);
  result.eval_count = sim_.eval_count() - evals_before;
  result.cycles_simulated = cycle - snap.cycle;
  result.ops_evaluated = sim_.ops_evaluated() - ops_before;
  result.op_block_evals = result.ops_evaluated * blocks;
  result.ff_block_ticks = sim_.ff_block_ticks() - ticks_before;
  result.start_cycle = snap.cycle;
  return result;
}

HoldLinks::HoldLinks(std::size_t num_ffs, std::size_t begin, std::size_t end)
    : window_begin(begin),
      window_end(std::max(begin, end)),
      row_words((num_ffs + 63) / 64),
      links((window_end - begin) * row_words, 0),
      masks(links.size(), 0) {}

std::size_t HoldLinks::bytes_for(std::size_t num_ffs, std::size_t begin,
                                 std::size_t end) noexcept {
  const std::size_t rows = end > begin ? end - begin : 0;
  return 2 * rows * ((num_ffs + 63) / 64) * sizeof(std::uint64_t);
}

template <std::size_t W>
std::size_t WideReplayRunner<W>::link_sweep_blocks(
    const CompiledStimulus& stimulus) noexcept {
  return std::clamp<std::size_t>(
      (stimulus.cone().num_observable_ffs() + kLanes) / kLanes, 1,
      kMaxLaneBlocksPerPass);
}

template <std::size_t W>
LinkSweepCost WideReplayRunner<W>::sweep_links(std::size_t begin, std::size_t end,
                                               HoldLinks& links) {
  const std::vector<std::uint8_t>& observable = stim_->cone().flip_flops;
  if (links.row_words != (observable.size() + 63) / 64) {
    throw std::invalid_argument(
        "WideReplayRunner: the links are sized for another flip-flop count");
  }
  if (begin > end || begin < links.window_begin || end > links.window_end ||
      end > stim_->num_cycles()) {
    throw std::invalid_argument(
        "WideReplayRunner: cycles outside the link window or the testbench");
  }
  LinkSweepCost cost;
  // An upset outside the cone is masked at every cycle.
  for (std::size_t cycle = begin; cycle < end; ++cycle) {
    for (std::size_t i = 0; i < observable.size(); ++i) {
      if (observable[i] == 0) links.set_masked(i, cycle);
    }
  }
  const std::size_t group = sim_.lanes() - 1;  // lane 0 stays golden
  for (std::size_t first = 0; first < ff_positions_.size() && begin < end;
       first += group) {
    sweep_group(begin, end, first, std::min(ff_positions_.size(), first + group),
                links, cost);
  }
  return cost;
}

template <std::size_t W>
void WideReplayRunner<W>::sweep_group(std::size_t begin, std::size_t end,
                                      std::size_t first, std::size_t last,
                                      HoldLinks& links, LinkSweepCost& cost) {
  const GoldenCheckpoints& ckpts = *golden_;
  const Testbench& tb = stim_->testbench();
  const std::vector<std::uint8_t>& observable_loops = stim_->cone().loopbacks;
  const auto ffs = stim_->netlist().flip_flops();
  const std::size_t blocks = sim_.num_blocks();
  const std::size_t num_ffs = ff_positions_.size();
  const std::uint64_t ops_before = sim_.ops_evaluated();

  const std::size_t index = ckpts.index_at_or_before(begin);
  const std::size_t start = ckpts.snapshots[index].cycle;
  load_golden(index);
  restore_golden();
  touched_.resize(blocks);
  once_.resize(blocks);
  twice_.resize(blocks);

  for (std::size_t cycle = start; cycle < end; ++cycle) {
    // Cycles before `begin` only bring every lane to golden at `begin`.
    const bool swept = cycle >= begin;
    drive_inputs<W>(sim_, *stim_, cycle, loop_values_);
    if (swept) {
      for (std::size_t i = first; i < last; ++i) {
        const std::size_t lane = 1 + i - first;
        sim_.inject(ffs[ff_positions_[i]], Block::lane_mask(lane % Block::kLanes),
                    lane / Block::kLanes);
      }
    }
    sim_.eval_incremental();
    for (std::size_t b = 0; swept && b < blocks; ++b) {
      touched_[b] = interface_diff(sim_, tb.monitor, ckpts.interface_tape[cycle], b);
    }
    for (std::size_t i = 0; i < tb.loopbacks.size(); ++i) {
      const netlist::NetId from = tb.loopbacks[i].from_net;
      golden_loop_[i] = sim_.value(from, 0).lane(0) ? 1 : 0;
      if (!swept || observable_loops[i] == 0) continue;
      const Block want = golden_loop_[i] != 0 ? Block::ones() : Block::zero();
      for (std::size_t b = 0; b < blocks; ++b) touched_[b] |= sim_.value(from, b) ^ want;
    }
    sim_.tick();
    for (std::size_t i = 0; i < num_ffs; ++i) {
      golden_q_[i] = sim_.ff_state(ffs[ff_positions_[i]], 0).lane(0) ? 1 : 0;
    }
    if (!swept) {
      // No lane is off golden yet: the next cycle reads golden loopbacks.
      splat_golden_loopbacks();
      continue;
    }
    // An upset that changes nothing outside in the testbench's last cycle
    // can never be observed.
    const bool final_cycle = cycle + 1 == stim_->num_cycles();

    // Which lanes hold one, or more than one, observable flip-flop off
    // golden after the edge.
    for (std::size_t b = 0; b < blocks; ++b) {
      once_[b] = Block::zero();
      twice_[b] = Block::zero();
    }
    for (std::size_t i = 0; i < num_ffs; ++i) {
      const Block want = golden_q_[i] != 0 ? Block::ones() : Block::zero();
      for (std::size_t b = 0; b < blocks; ++b) {
        const Block off = sim_.ff_state(ffs[ff_positions_[i]], b) ^ want;
        twice_[b] |= once_[b] & off;
        once_[b] |= off;
      }
    }
    for (std::size_t i = first; i < last; ++i) {
      const std::size_t lane = 1 + i - first;
      const std::size_t b = lane / Block::kLanes;
      const std::size_t in_block = lane % Block::kLanes;
      if (touched_[b].lane(in_block)) continue;
      const bool flipped =
          sim_.ff_state(ffs[ff_positions_[i]], b).lane(in_block) != (golden_q_[i] != 0);
      if (!once_[b].lane(in_block) || final_cycle) {
        links.set_masked(ff_positions_[i], cycle);
      } else if (flipped && !twice_[b].lane(in_block) && cycle + 1 < links.window_end) {
        links.set_link(ff_positions_[i], cycle);
      }
    }
    if (cycle + 1 < end) restore_golden();
  }
  cost.cycles_simulated += end - start;
  cost.op_block_evals += (sim_.ops_evaluated() - ops_before) * blocks;
}

template class WideReplayRunner<1>;
template class WideReplayRunner<4>;
template class WideReplayRunner<8>;

GoldenResult run_golden(const CompiledStimulus& stimulus, GoldenCheckpoints* record) {
  const netlist::Netlist& nl = stimulus.netlist();
  const Testbench& tb = stimulus.testbench();
  const std::size_t num_cycles = stimulus.num_cycles();
  const auto ffs = nl.flip_flops();
  if (record != nullptr) {
    if (record->interval == 0 || record->interval > num_cycles) {
      throw std::invalid_argument(
          "run_golden: checkpoint interval must be in [1, testbench length]");
    }
    record->begin_recording(ffs.size(), tb.loopbacks.size());
  }

  // Golden state is broadcast, so lane 0's bit is every lane's bit.
  WideSimulator<1> sim(nl);  // constructed at reset
  const auto lane0 = [&](netlist::NetId net) {
    return static_cast<std::uint16_t>(sim.value(net).word(0) & 1u);
  };
  const auto q_bit = [&](std::size_t ff) {
    return static_cast<std::uint8_t>(sim.ff_state(ffs[ff]).word(0) & 1u);
  };
  std::vector<LaneBlock<1>> loop_values;
  for (const Loopback& loop : tb.loopbacks) {
    loop_values.push_back(LaneBlock<1>::splat(broadcast(loop.initial)));
  }
  GoldenResult golden;
  ActivityTrace& activity = golden.activity;
  activity.cycles_at_1.assign(ffs.size(), 0);
  activity.state_changes.assign(ffs.size(), 0);
  activity.total_cycles = num_cycles;
  std::vector<std::uint8_t> prev_q(ffs.size());
  for (std::size_t i = 0; i < ffs.size(); ++i) prev_q[i] = q_bit(i);

  const PacketMonitorSpec& spec = tb.monitor;
  FrameState frames;
  for (std::size_t cycle = 0; cycle < num_cycles; ++cycle) {
    if (record != nullptr && cycle % record->interval == 0) {
      GoldenCheckpoints::Snapshot& snap = record->add_snapshot(cycle);
      const std::size_t index = record->snapshots.size() - 1;
      for (std::size_t i = 0; i < ffs.size(); ++i) {
        if (q_bit(i) != 0) record->set_state_bit(index, i);
      }
      for (std::size_t i = 0; i < loop_values.size(); ++i) {
        if (loop_values[i].word(0) & 1u) record->set_state_bit(index, ffs.size() + i);
      }
      // While a frame is in flight only its bytes carry state: err and
      // end_cycle are assigned at close time.
      snap.frames_completed = frames.frames.size();
      snap.open_bytes = frames.current.bytes;
      snap.frame_open = frames.open;
    }
    drive_inputs<1>(sim, stimulus, cycle, loop_values);
    sim.eval_incremental();

    std::uint16_t sample = 0;
    if (lane0(spec.valid)) sample |= GoldenCheckpoints::kTapeValid;
    if (lane0(spec.sop)) sample |= GoldenCheckpoints::kTapeSop;
    if (lane0(spec.eop)) sample |= GoldenCheckpoints::kTapeEop;
    if (lane0(spec.err)) sample |= GoldenCheckpoints::kTapeErr;
    for (std::size_t b = 0; b < spec.data.size(); ++b) {
      sample |= static_cast<std::uint16_t>(lane0(spec.data[b]) << (8 + b));
    }
    frames.observe(sample, cycle);
    if (record != nullptr) record->interface_tape.push_back(sample);

    for (std::size_t i = 0; i < ffs.size(); ++i) {
      const std::uint8_t q = q_bit(i);
      activity.cycles_at_1[i] += q;
      activity.state_changes[i] += static_cast<std::uint8_t>(q ^ prev_q[i]);
      prev_q[i] = q;
    }
    latch_loopbacks<1>(sim, tb, loop_values);
    sim.tick();
  }

  golden.frames = frames.finish();
  golden.eval_count = sim.eval_count();
  return golden;
}

}  // namespace ffr::sim
