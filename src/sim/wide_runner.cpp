#include "sim/wide_runner.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace ffr::sim {

namespace {

/// Incremental per-lane frame extraction over `blocks` lane blocks, with the
/// same frame rules as the flat oracle's PacketMonitor (runner.cpp). Lane L
/// of word w in block b is global lane b * W * 64 + w * 64 + L.
///
/// Golden-relative mode (follow_golden) keeps per-lane frame state only for
/// lanes whose monitored nets have differed from the golden interface tape.
/// One golden lane state advances on the tape in lockstep; a lane copies it
/// the cycle it first diverges, which is exactly the state that lane would
/// have built itself, since every earlier observation equalled golden's.
template <std::size_t W>
class WidePacketMonitor {
 public:
  using Block = LaneBlock<W>;

  WidePacketMonitor(const PacketMonitorSpec& spec, std::size_t blocks)
      : spec_(&spec),
        blocks_(blocks),
        width_(std::min<std::size_t>(spec.data.size(), 8)) {
    if (spec.valid == netlist::kNoNet || spec.data.empty()) {
      throw std::invalid_argument("WidePacketMonitor: incomplete monitor spec");
    }
    lanes_.resize(blocks * Block::kLanes);
  }

  /// Seeds every lane with the golden progress at a checkpoint (the golden
  /// prefix is identical on all lanes, so one snapshot seeds every block).
  void seed(std::span<const Frame> frames,
            const std::vector<std::uint8_t>& open_bytes, bool frame_open) {
    for (LaneState& state : lanes_) seed_lane(state, frames, open_bytes, frame_open);
  }

  /// Switches to golden-relative observation: every lane starts on the
  /// golden progress given here, held once, and `tape` is the golden
  /// interface per cycle (GoldenCheckpoints::interface_tape).
  void follow_golden(std::span<const std::uint16_t> tape,
                     std::span<const Frame> frames,
                     const std::vector<std::uint8_t>& open_bytes,
                     bool frame_open) {
    tape_ = tape;
    seed_lane(golden_, frames, open_bytes, frame_open);
    diverged_.assign(blocks_, Block::zero());
  }

  /// Captures lane 0's progress for a golden checkpoint: the count of frames
  /// completed so far (the frames themselves live once in
  /// GoldenCheckpoints::golden_frames) plus the partial frame. While a frame
  /// is in flight only its bytes carry state: err/end_cycle are assigned at
  /// close time.
  void snapshot(std::size_t& frames_completed,
                std::vector<std::uint8_t>& open_bytes, bool& frame_open) const {
    const LaneState& lane0 = lanes_.front();
    frames_completed = lane0.frames.size();
    open_bytes = lane0.current.bytes;
    frame_open = lane0.open;
  }

  /// Lane 0's interface sample in GoldenCheckpoints::interface_tape form.
  [[nodiscard]] std::uint16_t sample_lane0(const WideSimulator<W>& simulator) const {
    const auto bit = [&](netlist::NetId net) {
      return static_cast<std::uint16_t>(simulator.value(net).word(0) & 1u);
    };
    std::uint16_t sample = 0;
    if (bit(spec_->valid)) sample |= GoldenCheckpoints::kTapeValid;
    if (bit(spec_->sop)) sample |= GoldenCheckpoints::kTapeSop;
    if (bit(spec_->eop)) sample |= GoldenCheckpoints::kTapeEop;
    if (bit(spec_->err)) sample |= GoldenCheckpoints::kTapeErr;
    for (std::size_t b = 0; b < width_; ++b) {
      sample |= static_cast<std::uint16_t>(bit(spec_->data[b]) << (8 + b));
    }
    return sample;
  }

  void observe(const WideSimulator<W>& simulator, std::size_t cycle) {
    if (diverged_.empty()) {
      for (std::size_t blk = 0; blk < blocks_; ++blk) {
        observe_lanes(simulator, blk, simulator.value(spec_->valid, blk), cycle);
      }
      return;
    }
    const std::uint16_t golden = tape_[cycle];
    const auto splat = [&](std::uint16_t flag) {
      return (golden & flag) != 0 ? Block::ones() : Block::zero();
    };
    const bool golden_valid = (golden & GoldenCheckpoints::kTapeValid) != 0;
    for (std::size_t blk = 0; blk < blocks_; ++blk) {
      const Block& valid = simulator.value(spec_->valid, blk);
      // Lanes whose observation this cycle may differ from golden's: valid
      // differs, or both are valid and a marker or data bit differs.
      Block differ = valid ^ splat(GoldenCheckpoints::kTapeValid);
      if (golden_valid) {
        differ |= simulator.value(spec_->sop, blk) ^ splat(GoldenCheckpoints::kTapeSop);
        differ |= simulator.value(spec_->eop, blk) ^ splat(GoldenCheckpoints::kTapeEop);
        differ |= simulator.value(spec_->err, blk) ^ splat(GoldenCheckpoints::kTapeErr);
        for (std::size_t b = 0; b < width_; ++b) {
          differ |= simulator.value(spec_->data[b], blk) ^
                    splat(static_cast<std::uint16_t>(1u << (8 + b)));
        }
      }
      const Block fresh = differ & ~diverged_[blk];
      for (std::size_t w = 0; w < W; ++w) {
        for (std::uint64_t bits = fresh.word(w); bits != 0; bits &= bits - 1) {
          lanes_[blk * Block::kLanes + w * 64 +
                 static_cast<std::size_t>(std::countr_zero(bits))] = golden_;
        }
      }
      diverged_[blk] |= fresh;
      observe_lanes(simulator, blk, valid & diverged_[blk], cycle);
    }
    if (golden_valid) {
      step(golden_, (golden & GoldenCheckpoints::kTapeSop) != 0,
           (golden & GoldenCheckpoints::kTapeEop) != 0,
           (golden & GoldenCheckpoints::kTapeErr) != 0,
           static_cast<std::uint8_t>(golden >> 8), cycle);
    }
  }

  /// Per-lane frames; in golden-relative mode never-diverged lanes are
  /// flagged in `result.lane_is_golden` and their frame lists left empty.
  void finish(RunResult& result) {
    result.lane_frames.reserve(lanes_.size());
    if (!diverged_.empty()) result.lane_is_golden.assign(lanes_.size(), 0);
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      LaneState& state = lanes_[lane];
      if (!diverged_.empty() &&
          !diverged_[lane / Block::kLanes].lane(lane % Block::kLanes)) {
        result.lane_is_golden[lane] = 1;
      } else if (state.open && !state.current.bytes.empty()) {
        // Frame left open at end of simulation: the circuit stopped
        // delivering data mid-frame.
        state.current.err = true;
        state.frames.push_back(std::move(state.current));
      }
      result.lane_frames.push_back(std::move(state.frames));
    }
  }

 private:
  struct LaneState {
    FrameList frames;
    Frame current;
    bool open = false;
  };

  static void seed_lane(LaneState& state, std::span<const Frame> frames,
                        const std::vector<std::uint8_t>& open_bytes,
                        bool frame_open) {
    state.frames.assign(frames.begin(), frames.end());
    state.current = Frame{};
    state.current.bytes = open_bytes;
    state.open = frame_open;
  }

  /// One valid cycle of one lane.
  static void step(LaneState& state, bool sop, bool eop, bool err,
                   std::uint8_t byte, std::size_t cycle) {
    if (eop) {
      // End marker: close the open frame (or record a headless end).
      state.current.err = err;
      state.current.end_cycle = cycle;
      state.frames.push_back(std::move(state.current));
      state.current = Frame{};
      state.open = false;
      return;
    }
    if (sop) {
      if (state.open) {
        // Truncated previous frame (no end marker): emit as errored.
        state.current.err = true;
        state.current.end_cycle = cycle;
        state.frames.push_back(std::move(state.current));
        state.current = Frame{};
      }
      state.open = true;
    }
    state.current.bytes.push_back(byte);
  }

  /// Steps every lane of block `blk` set in `mask` with its own values.
  void observe_lanes(const WideSimulator<W>& simulator, std::size_t blk,
                     const Block& mask, std::size_t cycle) {
    if (!any(mask)) return;
    const Block& sop = simulator.value(spec_->sop, blk);
    const Block& eop = simulator.value(spec_->eop, blk);
    const Block& err = simulator.value(spec_->err, blk);
    const Block* data_bits[8] = {};
    for (std::size_t b = 0; b < width_; ++b) {
      data_bits[b] = &simulator.value(spec_->data[b], blk);
    }
    for (std::size_t w = 0; w < W; ++w) {
      for (std::uint64_t remaining = mask.word(w); remaining != 0;
           remaining &= remaining - 1) {
        const int lane = std::countr_zero(remaining);
        const std::uint64_t bit = std::uint64_t{1} << lane;
        std::uint8_t byte = 0;
        for (std::size_t b = 0; b < width_; ++b) {
          if (data_bits[b]->word(w) & bit) byte |= static_cast<std::uint8_t>(1u << b);
        }
        step(lanes_[blk * Block::kLanes + w * 64 + static_cast<std::size_t>(lane)],
             (sop.word(w) & bit) != 0, (eop.word(w) & bit) != 0,
             (err.word(w) & bit) != 0, byte, cycle);
      }
    }
  }

  const PacketMonitorSpec* spec_;
  std::size_t blocks_;
  std::size_t width_;  // monitored data bits (at most 8)
  std::vector<LaneState> lanes_;
  // Golden-relative mode (diverged_ non-empty): the tape, the golden lane
  // state, and per block the lanes that have diverged from it (these own
  // their state in lanes_).
  std::span<const std::uint16_t> tape_;
  LaneState golden_;
  std::vector<Block> diverged_;
};

}  // namespace

template <std::size_t W>
WideReplayRunner<W>::WideReplayRunner(const CompiledStimulus& stimulus,
                                      std::size_t blocks)
    : stim_(&stimulus), sim_(stimulus.netlist(), blocks) {}

template <std::size_t W>
RunResult WideReplayRunner<W>::run(std::span<const LaneInjection> injections,
                                   const WideRunOptions& options) {
  const netlist::Netlist& nl = stim_->netlist();
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
  if (options.record != nullptr) {
    if (!injections.empty()) {
      throw std::invalid_argument(
          "WideReplayRunner: checkpoint recording requires a fault-free run");
    }
    if (options.resume != nullptr) {
      throw std::invalid_argument(
          "WideReplayRunner: cannot record and resume in the same run");
    }
    if (options.record->interval == 0) {
      throw std::invalid_argument(
          "WideReplayRunner: checkpoint interval must be >= 1");
    }
    if (options.record->interval > num_cycles) {
      throw std::invalid_argument(
          "WideReplayRunner: checkpoint interval exceeds the testbench length");
    }
    options.record->begin_recording(nl.flip_flops().size(), tb.loopbacks.size());
  }
  if (options.resume != nullptr && options.trace_activity) {
    throw std::invalid_argument(
        "WideReplayRunner: activity tracing requires a full replay from reset");
  }
  if (options.golden != nullptr) {
    if (options.record != nullptr) {
      throw std::invalid_argument(
          "WideReplayRunner: a recording run cannot be golden-relative");
    }
    if (options.golden->interface_tape.size() != num_cycles) {
      throw std::invalid_argument(
          "WideReplayRunner: golden-relative run needs a full interface tape");
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
  WidePacketMonitor<W> monitor(tb.monitor, blocks);

  // Loopback registers, driven with their idle value on the first cycle.
  loop_values_.resize(tb.loopbacks.size() * blocks);
  for (std::size_t i = 0; i < tb.loopbacks.size(); ++i) {
    const Block initial = Block::splat(broadcast(tb.loopbacks[i].initial));
    for (std::size_t b = 0; b < blocks; ++b) loop_values_[i * blocks + b] = initial;
  }

  // Start point: reset, or the latest golden checkpoint not after the first
  // injection. Golden state is identical on every lane by construction, so
  // splatting each packed snapshot bit across whole blocks restores
  // blocks * W * 64 lanes all sitting on the golden prefix.
  std::size_t start_cycle = 0;
  if (options.resume != nullptr && !schedule_.empty()) {
    const GoldenCheckpoints& ckpts = *options.resume;
    const std::size_t index = ckpts.index_at_or_before(schedule_.front().cycle);
    const GoldenCheckpoints::Snapshot& snap = ckpts.snapshots[index];
    if (ckpts.num_loopbacks != tb.loopbacks.size()) {
      throw std::invalid_argument(
          "WideReplayRunner: checkpoint/testbench loopback mismatch");
    }
    start_cycle = snap.cycle;
    restore_state_.resize(ckpts.num_ffs * blocks);
    for (std::size_t i = 0; i < ckpts.num_ffs; ++i) {
      const Block value = ckpts.ff_bit(index, i) ? Block::ones() : Block::zero();
      for (std::size_t b = 0; b < blocks; ++b) restore_state_[i * blocks + b] = value;
    }
    sim_.restore_ff_state(restore_state_);
    for (std::size_t i = 0; i < tb.loopbacks.size(); ++i) {
      const Block value =
          ckpts.loopback_bit(index, i) ? Block::ones() : Block::zero();
      for (std::size_t b = 0; b < blocks; ++b) loop_values_[i * blocks + b] = value;
    }
    const auto prefix = std::span<const Frame>(ckpts.golden_frames)
                            .first(std::min(snap.frames_completed,
                                            ckpts.golden_frames.size()));
    if (options.golden != nullptr) {
      monitor.follow_golden(options.golden->interface_tape, prefix,
                            snap.open_bytes, snap.frame_open);
    } else {
      monitor.seed(prefix, snap.open_bytes, snap.frame_open);
    }
  } else {
    sim_.reset();
    if (options.golden != nullptr) {
      monitor.follow_golden(options.golden->interface_tape, {}, {}, false);
    }
  }

  const auto ffs = nl.flip_flops();
  ActivityTrace activity;
  if (options.trace_activity) {
    activity.cycles_at_1.assign(ffs.size(), 0);
    activity.state_changes.assign(ffs.size(), 0);
    prev_q_.resize(ffs.size());
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      prev_q_[i] = static_cast<std::uint8_t>(sim_.ff_state(ffs[i]).word(0) & 1u);
    }
  }

  std::size_t next_event = 0;
  const auto pis = nl.primary_inputs();
  for (std::size_t cycle = start_cycle; cycle < num_cycles; ++cycle) {
    if (options.record != nullptr && cycle % options.record->interval == 0) {
      GoldenCheckpoints& rec = *options.record;
      GoldenCheckpoints::Snapshot& snap = rec.add_snapshot(cycle);
      const std::size_t index = rec.snapshots.size() - 1;
      // Golden state is broadcast, so lane 0's bit is every lane's bit.
      for (std::size_t i = 0; i < ffs.size(); ++i) {
        if (sim_.ff_state(ffs[i]).word(0) & 1u) rec.set_state_bit(index, i);
      }
      for (std::size_t i = 0; i < tb.loopbacks.size(); ++i) {
        if (loop_values_[i * blocks].word(0) & 1u) {
          rec.set_state_bit(index, ffs.size() + i);
        }
      }
      monitor.snapshot(snap.frames_completed, snap.open_bytes, snap.frame_open);
    }
    for (std::size_t i = 0; i < pis.size(); ++i) {
      sim_.set_input(pis[i], Block::splat(stim_->input(cycle, i)));
    }
    for (std::size_t i = 0; i < tb.loopbacks.size(); ++i) {
      for (std::size_t b = 0; b < blocks; ++b) {
        sim_.set_input_block(tb.loopbacks[i].to_input, b,
                             loop_values_[i * blocks + b]);
      }
    }
    while (next_event < schedule_.size() && schedule_[next_event].cycle == cycle) {
      const std::uint32_t lane = schedule_[next_event].lane;
      sim_.inject(schedule_[next_event].ff_cell,
                  Block::lane_mask(lane % Block::kLanes), lane / Block::kLanes);
      ++next_event;
    }
    sim_.eval_incremental();
    monitor.observe(sim_, cycle);
    if (options.record != nullptr) {
      options.record->interface_tape.push_back(monitor.sample_lane0(sim_));
    }
    if (options.trace_activity) {
      for (std::size_t i = 0; i < ffs.size(); ++i) {
        const std::uint8_t q =
            static_cast<std::uint8_t>(sim_.ff_state(ffs[i]).word(0) & 1u);
        activity.cycles_at_1[i] += q;
        activity.state_changes[i] += static_cast<std::uint8_t>(q ^ prev_q_[i]);
        prev_q_[i] = q;
      }
    }
    for (std::size_t i = 0; i < tb.loopbacks.size(); ++i) {
      for (std::size_t b = 0; b < blocks; ++b) {
        loop_values_[i * blocks + b] = sim_.value(tb.loopbacks[i].from_net, b);
      }
    }
    sim_.tick();
  }
  if (options.trace_activity) activity.total_cycles = num_cycles;

  RunResult result;
  monitor.finish(result);
  if (options.record != nullptr) {
    // The shared frame stream every snapshot's frames_completed indexes into.
    options.record->golden_frames = result.lane_frames[0];
  }
  result.activity = std::move(activity);
  result.eval_count = sim_.eval_count() - evals_before;
  result.cycles_simulated = num_cycles - start_cycle;
  result.ops_evaluated = sim_.ops_evaluated() - ops_before;
  result.op_block_evals = result.ops_evaluated * blocks;
  result.ff_block_ticks = sim_.ff_block_ticks() - ticks_before;
  result.start_cycle = start_cycle;
  return result;
}

template class WideReplayRunner<1>;
template class WideReplayRunner<4>;
template class WideReplayRunner<8>;

GoldenResult run_golden(const CompiledStimulus& stimulus, GoldenCheckpoints* record) {
  WideReplayRunner<1> runner(stimulus);
  WideRunOptions options;
  options.trace_activity = true;
  options.record = record;
  RunResult run = runner.run({}, options);
  GoldenResult golden;
  golden.frames = std::move(run.lane_frames[0]);
  golden.activity = std::move(run.activity);
  golden.eval_count = run.eval_count;
  return golden;
}

}  // namespace ffr::sim
