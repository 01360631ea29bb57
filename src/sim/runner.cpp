#include "sim/runner.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>

namespace ffr::sim {

namespace {

/// Incremental per-lane frame extraction at the monitored packet interface.
class PacketMonitor {
 public:
  explicit PacketMonitor(const PacketMonitorSpec& spec) : spec_(&spec) {
    if (spec.valid == netlist::kNoNet || spec.data.empty()) {
      throw std::invalid_argument("PacketMonitor: incomplete monitor spec");
    }
    lanes_.resize(kNumLanes);
  }

  /// Seeds every lane with the golden progress at a checkpoint: the frames
  /// completed before the resume cycle plus the partially received frame.
  void seed(std::span<const Frame> frames,
            const std::vector<std::uint8_t>& open_bytes, bool frame_open) {
    for (LaneState& state : lanes_) {
      state.frames.assign(frames.begin(), frames.end());
      state.current = Frame{};
      state.current.bytes = open_bytes;
      state.open = frame_open;
    }
  }

  /// Captures lane 0's progress for a golden checkpoint: the count of
  /// frames completed so far (the frames themselves live once in
  /// GoldenCheckpoints::golden_frames) plus the partial frame. While a
  /// frame is in flight only its bytes carry state: err/end_cycle are
  /// assigned at close time.
  void snapshot(std::size_t& frames_completed,
                std::vector<std::uint8_t>& open_bytes, bool& frame_open) const {
    const LaneState& lane0 = lanes_.front();
    frames_completed = lane0.frames.size();
    open_bytes = lane0.current.bytes;
    frame_open = lane0.open;
  }

  void observe(const PackedSimulator& simulator, std::size_t cycle) {
    const Lanes valid = simulator.value(spec_->valid);
    if (valid == 0) return;
    const Lanes sop = simulator.value(spec_->sop);
    const Lanes eop = simulator.value(spec_->eop);
    const Lanes err = simulator.value(spec_->err);
    std::uint64_t data_bits[8] = {};
    const std::size_t width = std::min<std::size_t>(spec_->data.size(), 8);
    for (std::size_t b = 0; b < width; ++b) {
      data_bits[b] = simulator.value(spec_->data[b]);
    }
    Lanes remaining = valid;
    while (remaining != 0) {
      const int lane = std::countr_zero(remaining);
      remaining &= remaining - 1;
      LaneState& state = lanes_[static_cast<std::size_t>(lane)];
      const std::uint64_t bit = Lanes{1} << lane;
      if (eop & bit) {
        // End marker: close the open frame (or record a headless end).
        state.current.err = (err & bit) != 0;
        state.current.end_cycle = cycle;
        state.frames.push_back(std::move(state.current));
        state.current = Frame{};
        state.open = false;
        continue;
      }
      if (sop & bit) {
        if (state.open) {
          // Truncated previous frame (no end marker): emit as errored.
          state.current.err = true;
          state.current.end_cycle = cycle;
          state.frames.push_back(std::move(state.current));
          state.current = Frame{};
        }
        state.open = true;
      }
      std::uint8_t byte = 0;
      for (std::size_t b = 0; b < width; ++b) {
        if (data_bits[b] & bit) byte |= static_cast<std::uint8_t>(1u << b);
      }
      state.current.bytes.push_back(byte);
    }
  }

  [[nodiscard]] std::vector<FrameList> finish() {
    std::vector<FrameList> result;
    result.reserve(kNumLanes);
    for (LaneState& state : lanes_) {
      if (state.open && !state.current.bytes.empty()) {
        // Frame left open at end of simulation: the circuit stopped
        // delivering data mid-frame.
        state.current.err = true;
        state.frames.push_back(std::move(state.current));
      }
      result.push_back(std::move(state.frames));
    }
    return result;
  }

 private:
  struct LaneState {
    FrameList frames;
    Frame current;
    bool open = false;
  };

  const PacketMonitorSpec* spec_;
  std::vector<LaneState> lanes_;
};

}  // namespace

void GoldenCheckpoints::begin_recording(std::size_t ffs, std::size_t loopbacks) {
  num_ffs = ffs;
  num_loopbacks = loopbacks;
  golden_frames.clear();
  snapshots.clear();
  state_bits.clear();
  interface_tape.clear();
}

GoldenCheckpoints::Snapshot& GoldenCheckpoints::add_snapshot(std::size_t cycle) {
  Snapshot& snap = snapshots.emplace_back();
  snap.cycle = cycle;
  state_bits.resize(state_bits.size() + state_stride(), 0);
  return snap;
}

std::size_t GoldenCheckpoints::index_at_or_before(std::size_t cycle) const {
  if (snapshots.empty() || interval == 0) {
    throw std::logic_error("GoldenCheckpoints: no snapshots recorded");
  }
  // Snapshots sit at k * interval, so the latest one not after `cycle` is
  // directly indexable.
  return std::min(cycle / interval, snapshots.size() - 1);
}

namespace {

/// Heap bytes of a frame stream: per-frame payloads plus Frame bookkeeping.
std::size_t frame_stream_bytes(std::span<const Frame> frames) {
  std::size_t bytes = frames.size() * sizeof(Frame);
  for (const Frame& frame : frames) bytes += frame.bytes.size();
  return bytes;
}

}  // namespace

std::size_t GoldenCheckpoints::memory_bytes() const noexcept {
  std::size_t bytes = sizeof(*this);
  bytes += state_bits.size() * sizeof(std::uint64_t);
  bytes += snapshots.size() * sizeof(Snapshot);
  for (const Snapshot& snap : snapshots) bytes += snap.open_bytes.size();
  bytes += frame_stream_bytes(golden_frames);
  bytes += interface_tape.size() * sizeof(std::uint16_t);
  return bytes;
}

std::size_t GoldenCheckpoints::broadcast_word_bytes() const noexcept {
  // Reconstructs the footprint of the pre-packed layout: each snapshot held
  // one 64-bit broadcast word per FF and per loopback plus a private copy of
  // the frames completed before its cycle.
  std::size_t bytes = sizeof(interval) + sizeof(std::vector<Snapshot>);
  std::size_t prefix_bytes = 0;
  std::size_t frame = 0;
  for (const Snapshot& snap : snapshots) {
    while (frame < snap.frames_completed && frame < golden_frames.size()) {
      prefix_bytes += sizeof(Frame) + golden_frames[frame].bytes.size();
      ++frame;
    }
    bytes += sizeof(Snapshot) + 2 * sizeof(std::vector<Lanes>) + sizeof(FrameList);
    bytes += (num_ffs + num_loopbacks) * sizeof(Lanes);
    bytes += prefix_bytes + snap.open_bytes.size();
  }
  return bytes;
}

CompiledStimulus::CompiledStimulus(const netlist::Netlist& nl, const Testbench& tb)
    : nl_(&nl), tb_(&tb) {
  const Stimulus& stim = tb.stimulus;
  if (stim.num_inputs() != nl.primary_inputs().size()) {
    throw std::invalid_argument("CompiledStimulus: stimulus/PI count mismatch");
  }
  num_pis_ = stim.num_inputs();
  num_cycles_ = stim.num_cycles();
  waves_.resize(num_pis_ * num_cycles_);
  for (std::size_t cycle = 0; cycle < num_cycles_; ++cycle) {
    for (std::size_t i = 0; i < num_pis_; ++i) {
      waves_[cycle * num_pis_ + i] = broadcast(stim.get(i, cycle));
    }
  }
}

ReplayRunner::ReplayRunner(const CompiledStimulus& stimulus)
    : stim_(&stimulus), sim_(stimulus.netlist()) {}

RunResult ReplayRunner::run(std::span<const InjectionEvent> injections,
                            const RunOptions& options) {
  const netlist::Netlist& nl = stim_->netlist();
  const Testbench& tb = stim_->testbench();
  const std::size_t num_cycles = stim_->num_cycles();
  for (const InjectionEvent& ev : injections) {
    if (ev.cycle >= num_cycles) {
      throw std::invalid_argument("ReplayRunner: injection beyond end of run");
    }
  }
  if (options.record != nullptr) {
    if (!injections.empty()) {
      throw std::invalid_argument(
          "ReplayRunner: checkpoint recording requires a fault-free run");
    }
    if (options.resume != nullptr) {
      throw std::invalid_argument(
          "ReplayRunner: cannot record and resume in the same run");
    }
    if (options.record->interval == 0) {
      throw std::invalid_argument(
          "ReplayRunner: checkpoint interval must be >= 1");
    }
    if (options.record->interval > num_cycles) {
      throw std::invalid_argument(
          "ReplayRunner: checkpoint interval exceeds the testbench length");
    }
    options.record->begin_recording(nl.flip_flops().size(), tb.loopbacks.size());
  }
  if (options.resume != nullptr && options.trace_activity) {
    throw std::invalid_argument(
        "ReplayRunner: activity tracing requires a full replay from reset");
  }

  // Injection schedule sorted by cycle for a single sweep.
  schedule_.assign(injections.begin(), injections.end());
  std::sort(schedule_.begin(), schedule_.end(),
            [](const InjectionEvent& a, const InjectionEvent& b) {
              return a.cycle < b.cycle;
            });

  const std::uint64_t evals_before = sim_.eval_count();
  const std::uint64_t ops_before = sim_.ops_evaluated();
  PacketMonitor monitor(tb.monitor);

  // Loopback registers, driven with their idle value on the first cycle.
  loop_values_.resize(tb.loopbacks.size());
  for (std::size_t i = 0; i < tb.loopbacks.size(); ++i) {
    loop_values_[i] = broadcast(tb.loopbacks[i].initial);
  }

  // Start point: reset, or the latest golden checkpoint not after the first
  // injection. The skipped prefix is bit-identical to golden on every lane,
  // so restoring golden state + monitor progress loses nothing.
  std::size_t start_cycle = 0;
  if (options.resume != nullptr && !schedule_.empty()) {
    const GoldenCheckpoints& ckpts = *options.resume;
    const std::size_t index = ckpts.index_at_or_before(schedule_.front().cycle);
    const GoldenCheckpoints::Snapshot& snap = ckpts.snapshots[index];
    if (ckpts.num_loopbacks != loop_values_.size()) {
      throw std::invalid_argument(
          "ReplayRunner: checkpoint/testbench loopback mismatch");
    }
    start_cycle = snap.cycle;
    // Splat each packed golden bit back to a 64-lane broadcast word.
    restore_state_.resize(ckpts.num_ffs);
    for (std::size_t i = 0; i < ckpts.num_ffs; ++i) {
      restore_state_[i] = broadcast(ckpts.ff_bit(index, i));
    }
    sim_.restore_ff_state(restore_state_);
    for (std::size_t i = 0; i < loop_values_.size(); ++i) {
      loop_values_[i] = broadcast(ckpts.loopback_bit(index, i));
    }
    monitor.seed(std::span<const Frame>(ckpts.golden_frames)
                     .first(std::min(snap.frames_completed,
                                     ckpts.golden_frames.size())),
                 snap.open_bytes, snap.frame_open);
  } else {
    sim_.reset();
  }

  const auto ffs = nl.flip_flops();
  ActivityTrace activity;
  if (options.trace_activity) {
    activity.cycles_at_1.assign(ffs.size(), 0);
    activity.state_changes.assign(ffs.size(), 0);
    prev_q_.resize(ffs.size());
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      prev_q_[i] = sim_.ff_state(ffs[i]);
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
        if (sim_.ff_state(ffs[i]) & 1u) rec.set_state_bit(index, i);
      }
      for (std::size_t i = 0; i < loop_values_.size(); ++i) {
        if (loop_values_[i] & 1u) rec.set_state_bit(index, ffs.size() + i);
      }
      monitor.snapshot(snap.frames_completed, snap.open_bytes, snap.frame_open);
    }
    for (std::size_t i = 0; i < pis.size(); ++i) {
      sim_.set_input(pis[i], stim_->input(cycle, i));
    }
    for (std::size_t i = 0; i < tb.loopbacks.size(); ++i) {
      sim_.set_input(tb.loopbacks[i].to_input, loop_values_[i]);
    }
    while (next_event < schedule_.size() && schedule_[next_event].cycle == cycle) {
      sim_.inject(schedule_[next_event].ff_cell, schedule_[next_event].lane_mask);
      ++next_event;
    }
    if (options.incremental_eval) {
      sim_.eval_incremental();
    } else {
      sim_.eval();
    }
    monitor.observe(sim_, cycle);
    if (options.trace_activity) {
      for (std::size_t i = 0; i < ffs.size(); ++i) {
        const Lanes q = sim_.ff_state(ffs[i]);
        activity.cycles_at_1[i] += q & 1u;
        activity.state_changes[i] += (q ^ prev_q_[i]) & 1u;
        prev_q_[i] = q;
      }
    }
    for (std::size_t i = 0; i < tb.loopbacks.size(); ++i) {
      loop_values_[i] = sim_.value(tb.loopbacks[i].from_net);
    }
    sim_.tick();
  }
  if (options.trace_activity) activity.total_cycles = num_cycles;

  RunResult result;
  result.lane_frames = monitor.finish();
  if (options.record != nullptr) {
    // The shared frame stream every snapshot's frames_completed indexes into.
    options.record->golden_frames = result.lane_frames[0];
  }
  result.activity = std::move(activity);
  result.eval_count = sim_.eval_count() - evals_before;
  result.cycles_simulated = num_cycles - start_cycle;
  result.ops_evaluated = sim_.ops_evaluated() - ops_before;
  // One 64-lane block, and PackedSimulator::tick() captures every FF.
  result.op_block_evals = result.ops_evaluated;
  result.ff_block_ticks = result.cycles_simulated * ffs.size();
  result.start_cycle = start_cycle;
  return result;
}

RunResult run_testbench(const netlist::Netlist& nl, const Testbench& tb,
                        std::span<const InjectionEvent> injections,
                        const RunOptions& options) {
  const CompiledStimulus stimulus(nl, tb);
  ReplayRunner runner(stimulus);
  return runner.run(injections, options);
}

GoldenResult run_golden(const netlist::Netlist& nl, const Testbench& tb) {
  RunOptions options;
  options.trace_activity = true;
  RunResult run = run_testbench(nl, tb, {}, options);
  GoldenResult golden;
  golden.frames = std::move(run.lane_frames[0]);
  golden.activity = std::move(run.activity);
  golden.eval_count = run.eval_count;
  return golden;
}

}  // namespace ffr::sim
