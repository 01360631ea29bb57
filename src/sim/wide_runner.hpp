#pragma once
/// \file wide_runner.hpp
/// \brief The replay engine: WideReplayRunner<W> drives WideSimulator<W>
/// through a testbench for every campaign fault pass, and run_golden() is
/// the one golden run that records what those passes replay against. One
/// pass advances blocks * W * 64 independent fault scenarios; stimulus words
/// from the shared CompiledStimulus are splatted across every block, and the
/// golden checkpoint a pass resumes from splats each packed golden bit into
/// whole blocks — golden state is identical on every lane by construction,
/// so the bit-per-FF snapshot reproduces the golden prefix on all lanes
/// bit-exactly. Every cycle is evaluated with the simulator's dirty-set
/// eval_incremental(): construction ends in a full sweep and a restore
/// forces the next sweep to be full, so dirty-set evaluation is exact from
/// the first simulated cycle.
///
/// Fault passes observe the packet interface relative to golden: the
/// monitored nets are XORed against the recorded golden interface tape
/// every cycle, and only lanes that differ get per-lane frame state; the
/// rest are reported as golden without building or comparing frames.
/// Per-cycle cost then follows the lanes that left golden, as the
/// simulator's eval and tick follow the nets that changed.
///
/// A fault pass simulates only what the monitor can observe: its simulator
/// is pruned to the stimulus's observable cone (testbench.hpp), and the
/// pass stops at the first checkpoint cycle after its last injection at
/// which every lane's observable state is golden's again; the interface
/// can only replay the golden tape from there.
///
/// run_golden() is a fault-free loop on a single-block WideSimulator<1>
/// over the whole netlist (the features need every flip-flop's activity): it
/// traces activity, builds the golden frames from the same lane-0 interface
/// sample it records on the tape (with the frame rules the fault passes
/// use), and may record packed checkpoints. The flat run_testbench() oracle
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

/// Reusable fault-pass runner: owns one WideSimulator<W> pruned to the
/// observable cone, so the topological op list and fanout tables are built
/// once per worker and only restored + replayed per run(). Every run
/// resumes from the latest golden checkpoint at or before its earliest
/// injection and observes the interface relative to the golden tape: a lane
/// that never left golden is flagged in RunResult::lane_is_golden (its
/// frames are `golden.golden_frames`), and every other lane's frames —
/// golden_frames[0, lane_golden_prefix[L]) followed by lane_frames[L], see
/// lane_frames() — are bit-identical to the flat run_testbench() oracle
/// running the same injection in any of its 64 lanes. Not thread-safe; use
/// one runner per worker.
template <std::size_t W>
class WideReplayRunner {
 public:
  using Block = LaneBlock<W>;
  /// Lanes per single block; a run spans lanes() = blocks * kLanes lanes.
  static constexpr std::size_t kLanes = Block::kLanes;

  /// `golden` is a run_golden() recording of the same (netlist, testbench)
  /// pair; it must outlive the runner.
  /// \throws std::invalid_argument when blocks is 0 or exceeds
  /// kMaxLaneBlocksPerPass, or when `golden` is not a full recording of this
  /// testbench (interface tape length or loopback count differ).
  WideReplayRunner(const CompiledStimulus& stimulus,
                   const GoldenCheckpoints& golden, std::size_t blocks = 1);

  [[nodiscard]] std::size_t num_blocks() const noexcept {
    return sim_.num_blocks();
  }
  [[nodiscard]] std::size_t lanes() const noexcept { return sim_.lanes(); }

  /// Replays the testbench with the given fault schedule from the latest
  /// golden checkpoint at or before the earliest injection (snapshot 0 for
  /// an empty schedule), up to the end of the testbench or the first
  /// checkpoint cycle after the last injection at which every lane's
  /// observable flip-flops and pending loopback values equal that golden
  /// snapshot, whichever comes first (an empty schedule stops at once).
  /// An injection into a flip-flop outside the cone changes nothing. The
  /// returned RunResult carries lanes() frame streams, global-lane indexed
  /// (lane L lives in block L / kLanes, in-block lane L % kLanes), and
  /// counts in cycles_simulated only the cycles actually run.
  /// \throws std::invalid_argument on an injection beyond the run or the
  /// lanes; std::logic_error when `golden` holds no snapshot.
  [[nodiscard]] RunResult run(std::span<const LaneInjection> injections = {});

  /// The owned simulator, e.g. to inspect flip-flop state after a run.
  [[nodiscard]] const WideSimulator<W>& simulator() const noexcept {
    return sim_;
  }

 private:
  /// True when every lane's observable flip-flops and observable pending
  /// loopback values equal golden snapshot `snapshot`.
  [[nodiscard]] bool on_golden(std::size_t snapshot) const;

  const CompiledStimulus* stim_;
  const GoldenCheckpoints* golden_;
  WideSimulator<W> sim_;  // pruned to the stimulus's observable cone
  std::vector<std::size_t> ff_positions_;  // simulated FFs in flip_flops()
  std::vector<LaneInjection> schedule_;  // scratch, reused across runs
  std::vector<Block> loop_values_;       // scratch, loopback-major
  std::vector<Block> restore_state_;     // scratch for block-splat restores
};

extern template class WideReplayRunner<1>;
extern template class WideReplayRunner<4>;
extern template class WideReplayRunner<8>;

/// The golden run: replays `stimulus` fault-free from reset on a
/// single-block WideSimulator<1> with activity tracing. When `record` is
/// non-null, golden checkpoints every `record->interval` cycles, the
/// interface tape and the golden frames are recorded into it (previous
/// contents are cleared).
/// \throws std::invalid_argument when `record->interval` is outside
/// [1, num_cycles].
[[nodiscard]] GoldenResult run_golden(const CompiledStimulus& stimulus,
                                      GoldenCheckpoints* record = nullptr);

}  // namespace ffr::sim
