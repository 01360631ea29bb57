#include "sim/runner.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>

#include "sim/wide_runner.hpp"

namespace ffr::sim {

namespace {

/// Per-lane frame extraction at the monitored packet interface for the flat
/// oracle; WidePacketMonitor (wide_runner.cpp) is the campaign counterpart.
class PacketMonitor {
 public:
  explicit PacketMonitor(const PacketMonitorSpec& spec)
      : spec_(&spec), lanes_(kNumLanes) {}

  void observe(const PackedSimulator& simulator, std::size_t cycle) {
    const Lanes valid = simulator.value(spec_->valid);
    if (valid == 0) return;
    const Lanes sop = simulator.value(spec_->sop);
    const Lanes eop = simulator.value(spec_->eop);
    const Lanes err = simulator.value(spec_->err);
    std::uint64_t data_bits[8] = {};
    const std::size_t width = spec_->data.size();
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

std::size_t GoldenCheckpoints::memory_bytes() const noexcept {
  std::size_t bytes = sizeof(*this);
  bytes += state_bits.size() * sizeof(std::uint64_t);
  bytes += snapshots.size() * sizeof(Snapshot);
  for (const Snapshot& snap : snapshots) bytes += snap.open_bytes.size();
  bytes += interface_tape.size() * sizeof(std::uint16_t);
  return bytes;
}

FrameList lane_frames(const RunResult& run, const FrameList& golden,
                      std::size_t lane) {
  if (run.lane_is_golden.empty()) return run.lane_frames[lane];
  if (run.lane_is_golden[lane] != 0) return golden;
  FrameList frames(golden.begin(),
                   golden.begin() + static_cast<std::ptrdiff_t>(
                                        run.lane_golden_prefix[lane]));
  frames.insert(frames.end(), run.lane_frames[lane].begin(),
                run.lane_frames[lane].end());
  return frames;
}

CompiledStimulus::CompiledStimulus(const netlist::Netlist& nl, const Testbench& tb)
    : nl_(&nl), tb_(&tb) {
  validate_testbench(nl, tb);
  const Stimulus& stim = tb.stimulus;
  num_pis_ = stim.num_inputs();
  num_cycles_ = stim.num_cycles();
  waves_.resize(num_pis_ * num_cycles_);
  for (std::size_t cycle = 0; cycle < num_cycles_; ++cycle) {
    for (std::size_t i = 0; i < num_pis_; ++i) {
      waves_[cycle * num_pis_ + i] = broadcast(stim.get(i, cycle));
    }
  }
  cone_ = observable_cone(nl, tb);
}

RunResult run_testbench(const netlist::Netlist& nl, const Testbench& tb,
                        std::span<const InjectionEvent> injections) {
  validate_testbench(nl, tb);
  const Stimulus& stim = tb.stimulus;
  const auto pis = nl.primary_inputs();
  const std::size_t num_cycles = stim.num_cycles();
  for (const InjectionEvent& ev : injections) {
    if (ev.cycle >= num_cycles) {
      throw std::invalid_argument("run_testbench: injection beyond end of run");
    }
  }
  std::vector<InjectionEvent> schedule(injections.begin(), injections.end());
  std::sort(schedule.begin(), schedule.end(),
            [](const InjectionEvent& a, const InjectionEvent& b) {
              return a.cycle < b.cycle;
            });

  PackedSimulator sim(nl);  // constructed at reset
  PacketMonitor monitor(tb.monitor);
  // Loopback registers, driven with their idle value on the first cycle.
  std::vector<Lanes> loop_values(tb.loopbacks.size());
  for (std::size_t i = 0; i < tb.loopbacks.size(); ++i) {
    loop_values[i] = broadcast(tb.loopbacks[i].initial);
  }
  std::size_t next_event = 0;
  for (std::size_t cycle = 0; cycle < num_cycles; ++cycle) {
    for (std::size_t i = 0; i < pis.size(); ++i) {
      sim.set_input(pis[i], broadcast(stim.get(i, cycle)));
    }
    for (std::size_t i = 0; i < tb.loopbacks.size(); ++i) {
      sim.set_input(tb.loopbacks[i].to_input, loop_values[i]);
    }
    while (next_event < schedule.size() && schedule[next_event].cycle == cycle) {
      sim.inject(schedule[next_event].ff_cell, schedule[next_event].lane_mask);
      ++next_event;
    }
    sim.eval();
    monitor.observe(sim, cycle);
    for (std::size_t i = 0; i < tb.loopbacks.size(); ++i) {
      loop_values[i] = sim.value(tb.loopbacks[i].from_net);
    }
    sim.tick();
  }

  RunResult result;
  result.lane_frames = monitor.finish();
  result.eval_count = sim.eval_count();
  result.cycles_simulated = num_cycles;
  result.ops_evaluated = sim.ops_evaluated();
  return result;
}

GoldenResult run_golden(const netlist::Netlist& nl, const Testbench& tb) {
  return run_golden(CompiledStimulus(nl, tb));
}

}  // namespace ffr::sim
