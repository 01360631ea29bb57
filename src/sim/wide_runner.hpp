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
/// The same runner fills the hold links of a (netlist, testbench) pair
/// (HoldLinks, WideReplayRunner::sweep_links): which upsets have the outcome
/// of the same flip-flop's upset one cycle later, and which are masked
/// within one cycle. The sweep restores golden state as a fault pass does
/// and compares with golden the way a pass does: the monitor's
/// golden-relative test and the observable state.
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

struct HoldLinks;
struct LinkSweepCost;

/// Reusable fault-pass runner: owns one WideSimulator<W> pruned to the
/// observable cone, so the topological op list and fanout tables are built
/// once per worker and only restored + replayed per run(). Every run
/// resumes from the latest golden checkpoint at or before its earliest
/// injection and observes the interface relative to the golden tape: a lane
/// that never left golden is flagged in RunResult::lane_is_golden (its
/// frames are the golden run's GoldenResult::frames), and every other lane's
/// frames — those golden frames' first lane_golden_prefix[L] followed by
/// lane_frames[L], see lane_frames() — are bit-identical to the flat
/// run_testbench() oracle running the same injection in any of its 64
/// lanes. The same runner also sweeps hold links (sweep_links()); each
/// run() and each sweep starts by restoring golden state, so the two can
/// interleave on one runner. Not thread-safe; use one runner per worker.
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

  /// Blocks a runner needs to sweep every observable flip-flop of
  /// `stimulus` in one group (one lane each plus the golden lane 0), clamped
  /// to [1, kMaxLaneBlocksPerPass].
  [[nodiscard]] static std::size_t link_sweep_blocks(
      const CompiledStimulus& stimulus) noexcept;

  /// Fills the rows of cycles [begin, end) of `links`, which must be sized
  /// for this netlist's flip-flops, resuming from the latest checkpoint at
  /// or before `begin`. Every swept cycle starts with golden state on every
  /// lane; lane 0 stays golden and lane 1 + i gets observable flip-flop i
  /// flipped (the diagonal). After eval each lane's interface observation
  /// and observable loopback sources are compared with golden, after the
  /// tick its observable flip-flops, and then every lane is restored to
  /// lane 0's state. Every swept cycle is thus one full sweep of the cone.
  /// Observable flip-flops beyond the first lanes() - 1 are swept in
  /// further groups, each resuming from the checkpoint again.
  /// \throws std::invalid_argument when `links` is sized for another
  /// flip-flop count, or [begin, end) is not inside both its window and the
  /// testbench.
  LinkSweepCost sweep_links(std::size_t begin, std::size_t end, HoldLinks& links);

  /// The owned simulator, e.g. to inspect flip-flop state after a run.
  [[nodiscard]] const WideSimulator<W>& simulator() const noexcept {
    return sim_;
  }

 private:
  /// True when every lane's observable flip-flops and observable pending
  /// loopback values equal golden snapshot `snapshot`.
  [[nodiscard]] bool on_golden(std::size_t snapshot) const;
  /// Loads golden snapshot `snapshot` into golden_q_ and golden_loop_.
  void load_golden(std::size_t snapshot);
  /// Puts every lane on golden_q_ and golden_loop_: splats the flip-flops
  /// into the simulator and the pending loopback values into loop_values_.
  void restore_golden();
  /// Splats golden_loop_ into loop_values_ only.
  void splat_golden_loopbacks();
  void sweep_group(std::size_t begin, std::size_t end, std::size_t first,
                   std::size_t last, HoldLinks& links, LinkSweepCost& cost);

  const CompiledStimulus* stim_;
  const GoldenCheckpoints* golden_;
  WideSimulator<W> sim_;  // pruned to the stimulus's observable cone
  std::vector<std::size_t> ff_positions_;  // simulated FFs in flip_flops()
  std::vector<std::uint8_t> golden_q_;     // per simulated FF
  std::vector<std::uint8_t> golden_loop_;  // per loopback: pending value
  std::vector<LaneInjection> schedule_;  // scratch, reused across runs
  std::vector<Block> loop_values_;       // scratch, loopback-major
  std::vector<Block> restore_state_;     // scratch for block-splat restores
  std::vector<Block> touched_;  // per block: lanes that changed the outside
  std::vector<Block> once_;     // per block: lanes with >= 1 FF off golden
  std::vector<Block> twice_;    // per block: lanes with >= 2 FFs off golden
};

extern template class WideReplayRunner<1>;
extern template class WideReplayRunner<4>;
extern template class WideReplayRunner<8>;

/// Hold links and one-cycle masks of the upsets of every flip-flop at every
/// cycle of a window: a property of the (netlist, testbench) pair alone,
/// filled by WideReplayRunner::sweep_links. Comparisons with golden ignore the
/// flip-flops outside the observable cone, as WideReplayRunner's stop check
/// does: nothing they hold can reach an observable net.
///
/// link(f, c): an upset of f at the start of cycle c changes no monitored
/// interface observation and no observable loopback source in cycle c, and
/// after the clock edge f is the only observable flip-flop off golden, still
/// flipped. Cycle c + 1 then starts from golden with f flipped, which is
/// what an upset of f at c + 1 creates, and the interface has seen only
/// golden, so the two upsets have the same outcome. Never set at the
/// window's last cycle, so a chain of links ends inside the window.
///
/// masked(f, c): an upset of f at c is kOk without simulation: f lies
/// outside the observable cone, or the upset changes no monitored
/// observation or observable loopback source in cycle c and either every
/// observable flip-flop is back on golden after the edge or c is the
/// testbench's last cycle.
///
/// Both are false outside the window.
struct HoldLinks {
  std::size_t window_begin = 0;  ///< First cycle covered.
  std::size_t window_end = 0;    ///< One past the last cycle covered.
  std::size_t row_words = 0;     ///< 64-bit words per cycle row.
  /// Cycle-major bit rows: cycle c's row is words [(c - window_begin) *
  /// row_words, (c - window_begin + 1) * row_words), and its bit i belongs
  /// to flip-flop i of Netlist::flip_flops(). Rows of distinct cycles never
  /// share a word, so disjoint cycle ranges may be filled concurrently.
  std::vector<std::uint64_t> links;
  std::vector<std::uint64_t> masks;

  HoldLinks() = default;
  /// Clear rows for `num_ffs` flip-flops over cycles [begin, end).
  HoldLinks(std::size_t num_ffs, std::size_t begin, std::size_t end);

  [[nodiscard]] bool link(std::size_t ff, std::size_t cycle) const noexcept {
    return test(links, ff, cycle);
  }
  [[nodiscard]] bool masked(std::size_t ff, std::size_t cycle) const noexcept {
    return test(masks, ff, cycle);
  }
  void set_link(std::size_t ff, std::size_t cycle) { set(links, ff, cycle); }
  void set_masked(std::size_t ff, std::size_t cycle) { set(masks, ff, cycle); }

  /// Bytes a HoldLinks(num_ffs, begin, end) holds: two bit rows per cycle.
  [[nodiscard]] static std::size_t bytes_for(std::size_t num_ffs, std::size_t begin,
                                             std::size_t end) noexcept;

 private:
  [[nodiscard]] bool test(const std::vector<std::uint64_t>& bits, std::size_t ff,
                          std::size_t cycle) const noexcept {
    if (cycle < window_begin || cycle >= window_end) return false;
    return (bits[(cycle - window_begin) * row_words + ff / 64] >> (ff % 64)) & 1u;
  }
  void set(std::vector<std::uint64_t>& bits, std::size_t ff, std::size_t cycle) {
    bits[(cycle - window_begin) * row_words + ff / 64] |= std::uint64_t{1} << (ff % 64);
  }
};

/// Work of a link sweep: cycles advanced and ops evaluated times lane blocks.
struct LinkSweepCost {
  std::uint64_t cycles_simulated = 0;
  std::uint64_t op_block_evals = 0;

  LinkSweepCost& operator+=(const LinkSweepCost& other) noexcept {
    cycles_simulated += other.cycles_simulated;
    op_block_evals += other.op_block_evals;
    return *this;
  }
};

/// The golden run: replays `stimulus` fault-free from reset on a
/// single-block WideSimulator<1> with activity tracing. When `record` is
/// non-null, golden checkpoints every `record->interval` cycles and the
/// interface tape are recorded into it (previous contents are cleared); the
/// golden frames their snapshots count are the result's `frames`.
/// \throws std::invalid_argument when `record->interval` is outside
/// [1, num_cycles].
[[nodiscard]] GoldenResult run_golden(const CompiledStimulus& stimulus,
                                      GoldenCheckpoints* record = nullptr);

}  // namespace ffr::sim
