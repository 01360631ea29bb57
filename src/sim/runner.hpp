#pragma once
/// \file runner.hpp
/// \brief Types shared by every testbench run (injection events, frames per
/// lane, activity traces, golden checkpoints, precompiled stimulus) plus the
/// flat oracle run_testbench(): a fresh PackedSimulator driven from reset
/// with a full eval() and tick() every cycle. Campaign passes execute on
/// WideReplayRunner<W> and the golden run on run_golden() (both in
/// wide_runner.hpp); run_golden() here compiles the stimulus and calls it.

#include <cstdint>
#include <span>
#include <vector>

#include "sim/packed_sim.hpp"
#include "sim/testbench.hpp"

namespace ffr::sim {

/// A scheduled single-event upset: flip `ff_cell` state in `lane_mask` lanes
/// at the start of `cycle` (before combinational evaluation).
struct InjectionEvent {
  netlist::CellId ff_cell = netlist::kNoCell;
  std::uint32_t cycle = 0;
  Lanes lane_mask = 0;
};

/// Per-flip-flop signal activity gathered during a run (lane 0 observed),
/// indexed like Netlist::flip_flops().
struct ActivityTrace {
  std::vector<std::uint64_t> cycles_at_1;
  std::vector<std::uint64_t> state_changes;
  std::uint64_t total_cycles = 0;
};

/// Golden-state checkpoints recorded during a fault-free run, shared by
/// every fault pass that replays the same (netlist, testbench) pair. A
/// snapshot at cycle C captures everything a replay runner needs to resume
/// simulation at the top of cycle C: flip-flop state, pending loopback
/// values and the packet monitor's progress (frames completed before C plus
/// the bytes of the frame in flight).
///
/// Golden state is broadcast (every lane computes the identical bit), so
/// storage is bit-packed: one bit per flip-flop / loopback per snapshot in
/// `state_bits` (the natural wire format for shipping checkpoints to
/// campaign shards). Restoring splats each bit back to a full broadcast
/// word — or to a whole LaneBlock, which is how WideReplayRunner
/// (wide_runner.hpp) seeds all W * 64 lanes of a SIMD lane-block pass from
/// the same snapshot.
/// Completed golden frames are not copied: they are the recording run's
/// GoldenResult::frames, and each snapshot keeps only the count of frames
/// completed before its cycle.
/// A recording also keeps the golden interface tape, which lets fault
/// passes compare their monitored nets against golden instead of building
/// frames for every lane (WideReplayRunner's golden-relative monitor).
struct GoldenCheckpoints {
  struct Snapshot {
    std::size_t cycle = 0;                 ///< Resume point.
    std::size_t frames_completed = 0;      ///< Golden frames done before `cycle`.
    std::vector<std::uint8_t> open_bytes;  ///< Bytes of the frame in flight.
    bool frame_open = false;               ///< A frame is open mid-stream.
  };

  std::size_t interval = 0;       ///< Cycles between snapshots.
  std::size_t num_ffs = 0;        ///< Flip-flops per snapshot (flip_flops order).
  std::size_t num_loopbacks = 0;  ///< Loopback registers per snapshot.
  std::vector<Snapshot> snapshots;  ///< snapshots[k].cycle == k * interval.
  /// Packed state, snapshot-major: snapshot k occupies words
  /// [k * state_stride(), (k + 1) * state_stride()). Within a snapshot, bit
  /// i is flip-flop i's Q and bit num_ffs + j is loopback j's pending value.
  std::vector<std::uint64_t> state_bits;
  /// Golden packet-interface sample per cycle, one entry per testbench cycle:
  /// the kTape* flag bits plus the monitor's data byte in bits 8..15.
  std::vector<std::uint16_t> interface_tape;
  static constexpr std::uint16_t kTapeValid = 1u << 0;
  static constexpr std::uint16_t kTapeSop = 1u << 1;
  static constexpr std::uint16_t kTapeEop = 1u << 2;
  static constexpr std::uint16_t kTapeErr = 1u << 3;

  /// 64-bit words per snapshot in `state_bits`.
  [[nodiscard]] std::size_t state_stride() const noexcept {
    return (num_ffs + num_loopbacks + 63) / 64;
  }

  /// Prepares for a fresh recording run: clears prior snapshots and
  /// fixes the packed layout. `interval` is left as configured.
  void begin_recording(std::size_t ffs, std::size_t loopbacks);

  /// Appends the snapshot for `cycle` (zeroed state bits) and returns it.
  Snapshot& add_snapshot(std::size_t cycle);

  /// Sets packed bit `index` of snapshot `snapshot` (recording helper).
  void set_state_bit(std::size_t snapshot, std::size_t index) {
    state_bits[snapshot * state_stride() + index / 64] |=
        std::uint64_t{1} << (index % 64);
  }

  /// Flip-flop i's golden Q bit at snapshot k.
  [[nodiscard]] bool ff_bit(std::size_t snapshot, std::size_t ff) const {
    return (state_bits[snapshot * state_stride() + ff / 64] >> (ff % 64)) & 1u;
  }

  /// Loopback j's pending golden value at snapshot k.
  [[nodiscard]] bool loopback_bit(std::size_t snapshot, std::size_t loopback) const {
    return ff_bit(snapshot, num_ffs + loopback);
  }

  /// Index of the latest snapshot with snapshot.cycle <= `cycle` (the
  /// cycle-0 snapshot always exists after recording).
  /// \throws std::logic_error when empty.
  [[nodiscard]] std::size_t index_at_or_before(std::size_t cycle) const;

  /// Latest snapshot with snapshot.cycle <= `cycle`.
  /// \throws std::logic_error when empty.
  [[nodiscard]] const Snapshot& at_or_before(std::size_t cycle) const {
    return snapshots[index_at_or_before(cycle)];
  }

  /// Actual bytes held by this (packed) representation: packed state words,
  /// snapshot bookkeeping and the interface tape.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;
};

struct RunResult {
  std::vector<FrameList> lane_frames;  // one per lane
  std::uint64_t eval_count = 0;        // evaluation sweeps (flat: +1 reset)
  std::uint64_t cycles_simulated = 0;  // cycles actually advanced
  std::uint64_t ops_evaluated = 0;     // individual gate evaluations
  std::uint64_t op_block_evals = 0;    // wide: ops_evaluated x lane blocks
  std::uint64_t ff_block_ticks = 0;    // wide: FF-block captures by tick()
  std::uint64_t start_cycle = 0;       // 0 unless resumed from a checkpoint
  /// Wide fault passes only: 1 when lane L's monitored interface never
  /// differed from the golden tape, so its frames are the golden frames and
  /// lane_frames[L] is left empty. Empty for the flat oracle.
  std::vector<std::uint8_t> lane_is_golden;
  /// Wide fault passes only: the number of leading golden frames a lane
  /// that left golden delivered before it did. Those frames are shared, not
  /// copied: lane_frames[L] holds only the frames after them. Empty for the
  /// flat oracle.
  std::vector<std::size_t> lane_golden_prefix;
};

/// Lane `lane`'s full frame stream in `run`: `golden` (the golden frames of
/// the same testbench) for a lane flagged golden, the shared golden prefix
/// followed by lane_frames[lane] for one that left golden, and
/// lane_frames[lane] as is for a flat-oracle run.
[[nodiscard]] FrameList lane_frames(const RunResult& run, const FrameList& golden,
                                    std::size_t lane);

/// The flat oracle: simulates the whole testbench from reset on a fresh
/// PackedSimulator with a full eval() and tick() every cycle, and extracts
/// every lane's frames. `injections` may target any flip-flops/cycles;
/// events outside [0, num_cycles) are rejected with std::invalid_argument,
/// as is a testbench that validate_testbench() rejects. eval_count and
/// ops_evaluated include the reset sweep.
[[nodiscard]] RunResult run_testbench(const netlist::Netlist& nl,
                                      const Testbench& tb,
                                      std::span<const InjectionEvent> injections = {});

/// Precompiled, shareable stimulus for one (netlist, testbench) pair:
/// validates the testbench once (validate_testbench), pre-broadcasts
/// every input sample into a 64-lane word, so a replay pass skips the
/// per-cycle bool -> Lanes expansion, and computes the pair's
/// observable_cone() once for the fault passes that replay it. Holds
/// references; the netlist and testbench must outlive it. Immutable after
/// construction, so one instance can feed many WideReplayRunners
/// concurrently. input() takes any cycle in [0, num_cycles), so replays may
/// start mid-stream.
class CompiledStimulus {
 public:
  /// \throws std::invalid_argument when validate_testbench() rejects the
  /// pair.
  CompiledStimulus(const netlist::Netlist& nl, const Testbench& tb);

  [[nodiscard]] const netlist::Netlist& netlist() const noexcept { return *nl_; }
  [[nodiscard]] const Testbench& testbench() const noexcept { return *tb_; }
  [[nodiscard]] std::size_t num_cycles() const noexcept { return num_cycles_; }

  /// The part of the netlist that can reach the monitored interface.
  [[nodiscard]] const ObservableCone& cone() const noexcept { return cone_; }

  /// Broadcast value of the pi-th primary input at `cycle`.
  [[nodiscard]] Lanes input(std::size_t cycle, std::size_t pi) const noexcept {
    return waves_[cycle * num_pis_ + pi];
  }

  /// Bytes held by the pre-broadcast waveform table and the cone — the
  /// dominant cost of keeping a compiled stimulus resident (see
  /// CampaignEngine and the service-layer engine registry's byte budget).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return waves_.size() * sizeof(Lanes) + cone_.nets.size() +
           cone_.flip_flops.size() + cone_.loopbacks.size();
  }

 private:
  const netlist::Netlist* nl_;
  const Testbench* tb_;
  std::size_t num_pis_ = 0;
  std::size_t num_cycles_ = 0;
  std::vector<Lanes> waves_;  // cycle-major
  ObservableCone cone_;
};

/// Fault-free golden run: frames of lane 0 plus the activity trace.
struct GoldenResult {
  FrameList frames;
  ActivityTrace activity;
  std::uint64_t eval_count = 0;
};

/// The golden run of (nl, tb): compiles the stimulus and calls the one
/// golden function, run_golden(const CompiledStimulus&) in wide_runner.hpp.
[[nodiscard]] GoldenResult run_golden(const netlist::Netlist& nl, const Testbench& tb);

}  // namespace ffr::sim
