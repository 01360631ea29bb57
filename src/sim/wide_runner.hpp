#pragma once
/// \file wide_runner.hpp
/// \brief The replay engine: drives WideSimulator<W> through a testbench for
/// every campaign fault pass and every golden run. One run advances
/// blocks * W * 64 independent fault scenarios; stimulus words from the
/// shared CompiledStimulus are splatted across every block, and a golden
/// checkpoint resume splats each packed golden bit into whole blocks —
/// golden state is identical on every lane by construction, so the
/// bit-per-FF snapshot reproduces the golden prefix on all lanes bit-exactly.
/// Every cycle is evaluated with the simulator's dirty-set
/// eval_incremental(): reset() ends in a full sweep and a restore forces the
/// next sweep to be full, so dirty-set evaluation is exact from the first
/// simulated cycle.
///
/// Fault passes can observe the packet interface relative to golden
/// (WideRunOptions::golden): the monitored nets are XORed against the
/// recorded golden interface tape every cycle, and only lanes that differ
/// get per-lane frame state; the rest are reported as golden without
/// building or comparing frames. Per-cycle cost then follows the lanes that
/// left golden, as the simulator's eval and tick follow the nets that
/// changed.
///
/// run_golden() is the one golden path: a fault-free single-block
/// WideReplayRunner<1> run that traces activity (the golden bit stream is
/// the same on every lane, so lane 0 observes it) and may record packed
/// checkpoints plus the interface tape. The flat run_testbench() oracle
/// (runner.hpp) checks both fault and golden runs lane by lane.

#include <cstdint>
#include <span>
#include <vector>

#include "sim/runner.hpp"
#include "sim/wide_sim.hpp"

namespace ffr::sim {

/// A scheduled single-event upset for a wide pass: flip `ff_cell` in the
/// single global lane `lane` (< blocks * W * 64) at the start of `cycle`.
/// Single-lane by design — campaign passes inject exactly one fault per lane.
struct LaneInjection {
  netlist::CellId ff_cell = netlist::kNoCell;
  std::uint32_t cycle = 0;
  std::uint32_t lane = 0;
};

struct WideRunOptions {
  /// Record per-FF activity of the golden bit stream (lane 0 of block 0).
  /// Full replays from reset only (the trace would otherwise cover only the
  /// simulated suffix).
  bool trace_activity = false;
  /// Record packed golden checkpoints every `record->interval` cycles into
  /// `record`, plus the interface tape and the golden frames (previous
  /// contents are cleared). Fault-free runs only; incompatible with resume;
  /// `record->interval` must be in [1, num_cycles].
  GoldenCheckpoints* record = nullptr;
  /// Resume from the latest golden checkpoint at or before the earliest
  /// injection instead of replaying from reset; the skipped prefix is
  /// bit-identical to golden by construction. Ignored when the schedule is
  /// empty. Incompatible with trace_activity.
  const GoldenCheckpoints* resume = nullptr;
  /// Golden-relative monitor: compare the monitored nets against
  /// `golden->interface_tape` every cycle and build frames only for lanes
  /// that differ; the others are flagged in RunResult::lane_is_golden. Needs
  /// a WideReplayRunner recording of this testbench (a full tape); any
  /// interval works. Incompatible with record.
  const GoldenCheckpoints* golden = nullptr;
};

/// Reusable wide-pass driver: owns one WideSimulator<W>, so the topological
/// op list and fanout tables are built once per worker and only reset +
/// replayed per run(). Frames observed on lane L are bit-identical to the
/// flat run_testbench() oracle running the same injection in any of its 64
/// lanes, whether the run starts from reset or from a checkpoint
/// (golden-relative runs report a lane that never left golden as such, with
/// the golden frames implied). Not thread-safe; use one runner per worker.
template <std::size_t W>
class WideReplayRunner {
 public:
  using Block = LaneBlock<W>;
  /// Lanes per single block; a run spans lanes() = blocks * kLanes lanes.
  static constexpr std::size_t kLanes = Block::kLanes;

  /// \throws std::invalid_argument when blocks is 0 or exceeds
  /// kMaxLaneBlocksPerPass.
  explicit WideReplayRunner(const CompiledStimulus& stimulus,
                            std::size_t blocks = 1);

  [[nodiscard]] std::size_t num_blocks() const noexcept {
    return sim_.num_blocks();
  }
  [[nodiscard]] std::size_t lanes() const noexcept { return sim_.lanes(); }

  /// Replays the testbench with the given fault schedule (from reset, or
  /// from a golden checkpoint when options.resume is set). The returned
  /// RunResult carries lanes() frame streams, global-lane indexed (lane L
  /// lives in block L / kLanes, in-block lane L % kLanes).
  [[nodiscard]] RunResult run(std::span<const LaneInjection> injections = {},
                              const WideRunOptions& options = {});

  /// The owned simulator, e.g. to inspect flip-flop state after a run.
  [[nodiscard]] const WideSimulator<W>& simulator() const noexcept {
    return sim_;
  }

 private:
  const CompiledStimulus* stim_;
  WideSimulator<W> sim_;
  std::vector<LaneInjection> schedule_;  // scratch, reused across runs
  std::vector<Block> loop_values_;       // scratch, loopback-major
  std::vector<Block> restore_state_;     // scratch for block-splat restores
  std::vector<std::uint8_t> prev_q_;     // scratch for activity tracing
};

extern template class WideReplayRunner<1>;
extern template class WideReplayRunner<4>;
extern template class WideReplayRunner<8>;

/// The golden run: replays `stimulus` fault-free from reset on a
/// single-block WideReplayRunner<1> with activity tracing. When `record` is
/// non-null, golden checkpoints every `record->interval` cycles, the
/// interface tape and the golden frames are recorded into it (see
/// WideRunOptions::record).
[[nodiscard]] GoldenResult run_golden(const CompiledStimulus& stimulus,
                                      GoldenCheckpoints* record = nullptr);

}  // namespace ffr::sim
