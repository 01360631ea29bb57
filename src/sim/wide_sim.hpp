#pragma once
/// \file wide_sim.hpp
/// \brief Block-wide bit-parallel gate simulator with event-driven evaluation:
/// the LaneBlock<W> generalization of PackedSimulator. Every net carries
/// `blocks` LaneBlock<W>s (blocks * W * 64 fault lanes), and the eval /
/// eval_incremental / tick / inject / restore inner loops are written over
/// the block type, so GCC/Clang lower each gate
/// evaluation to one AVX2 (W=4) or AVX-512 (W=8) operation per block where
/// the build architecture allows. Sweeping several blocks per op keeps the
/// vector pipelines busy past the register-width ceiling: the per-op operand
/// pointers are formed once and the block loop runs back-to-back independent
/// SIMD ops on adjacent cache lines (net-major storage: net n's blocks are
/// contiguous at [n * blocks, (n + 1) * blocks)).
///
/// WideSimulator<W> is the simulator of every campaign pass and golden run
/// (W = 1 for 64-lane passes); a fault pass's is pruned to the observable
/// cone (the `live_nets` constructor argument). WideReplayRunner drives
/// both with eval_incremental() only, and eval() is the full sweep behind
/// reset(), the post-restore resync and the tests' oracle comparisons.
/// Every simulated net of every lane is bit-identical to the full-sweep
/// PackedSimulator oracle (packed_sim.hpp) running that lane's scenario;
/// see tests/test_lane_width.cpp.
///
/// Ops are stored level-major: an op's level is one above its deepest input
/// (primary inputs, FF Qs and constants are level 0), and within a level ops
/// are grouped by cell function, in topological order otherwise. That is
/// still a topological order, so eval() sweeps it as is, and runs of equal
/// functions keep the gate dispatch predictable.
///
/// The event-driven paths cost what actually changes:
///   - eval_incremental() keeps one pending bit per op and evaluates an op
///     only when one of its input nets changed (dirty is tracked per net; a
///     net is dirty when any of its blocks changed). An op only schedules
///     ops of higher levels, so the sweep walks the levels in order and
///     reads and clears each pending word once per level range. An
///     evaluated op stores its output blocks unconditionally and schedules
///     its readers iff the OR of the block differences is non-zero.
///   - tick() only visits the FFs whose D net changed since the last tick
///     (a changed op output, or a dirty primary-input or Q net) or whose Q
///     inject() flipped; every other FF already holds Q == D. The tick after
///     a full eval() visits every FF.
/// After restore_ff_state() the stored combinational values are stale, so
/// the next eval_incremental() is a full sweep. Blocks cross this interface
/// by reference only: the SIMD argument ABI of the build flags never leaks
/// between translation units.

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/lane_block.hpp"

namespace ffr::sim {

template <std::size_t W>
class WideSimulator {
 public:
  using Block = LaneBlock<W>;
  /// Lanes per single block; total lanes are num_blocks() * kLanes.
  static constexpr std::size_t kLanes = Block::kLanes;

  /// The netlist must be finalized. The simulator keeps a reference; the
  /// netlist must outlive it. `blocks` lane blocks are swept per pass.
  /// A non-empty `live_nets` (one flag per NetId, e.g.
  /// ObservableCone::nets) prunes the simulation to the flagged nets: only
  /// ops that drive a flagged net and flip-flops whose Q is flagged are
  /// simulated, in Netlist::flip_flops() order. The flagged set must be
  /// closed under fan-in (every input of a flagged op and the D of a
  /// flagged flip-flop flagged, or a primary input); the value() of any
  /// other net is then never computed.
  /// \throws std::invalid_argument when blocks is 0 or exceeds
  /// kMaxLaneBlocksPerPass, or when `live_nets` is neither empty nor one
  /// flag per net.
  explicit WideSimulator(const netlist::Netlist& nl, std::size_t blocks = 1,
                         std::span<const std::uint8_t> live_nets = {});

  [[nodiscard]] std::size_t num_blocks() const noexcept { return blocks_; }
  [[nodiscard]] std::size_t lanes() const noexcept { return blocks_ * kLanes; }

  /// Resets every flip-flop to its init value (all lanes) and clears inputs.
  void reset();

  /// Broadcasts `value` to every block of a primary-input net.
  void set_input(netlist::NetId net, const Block& value);

  /// Sets one block of a primary-input net (per-block loopback values).
  void set_input_block(netlist::NetId net, std::size_t block, const Block& value);

  /// Re-evaluates all combinational logic from current inputs + FF states.
  void eval();

  /// Event-driven sweep over the dirty cone; bit-identical to eval(). Falls
  /// back to a full eval() while the stored values are not known to be
  /// coherent (after restore_ff_state()) — a restored block invalidates
  /// every combinational net, including blocks that were dirtied before the
  /// restore and never restored themselves.
  void eval_incremental();

  /// Clock edge: every flip-flop captures its D input. Call eval() or
  /// eval_incremental() first. Only FFs whose D changed or whose Q was
  /// injected since the last tick are visited (all of them after a full
  /// eval()); the result equals a full tick.
  void tick();

  /// Flips the stored state of a flip-flop in the lanes of block `block`
  /// set in `mask`. A flip-flop pruned from the simulation is read by
  /// nothing simulated, so flipping it is a no-op.
  void inject(netlist::CellId ff_cell, const Block& mask, std::size_t block = 0);

  /// Simulated flip-flops (all of them unless pruned).
  [[nodiscard]] std::size_t num_ffs() const noexcept { return ffs_.size(); }

  /// Copies every flip-flop's Q blocks into `out`, flip-flop-major: FF i's
  /// blocks land at [i * num_blocks(), (i + 1) * num_blocks()).
  void snapshot_ff_state(std::vector<Block>& out) const;

  /// Overwrites every flip-flop's Q blocks from `state` (same order/size as
  /// snapshot_ff_state). Combinational nets become stale: the next
  /// eval_incremental() performs a full sweep to re-establish coherence.
  /// \throws std::invalid_argument on a size mismatch.
  void restore_ff_state(std::span<const Block> state);

  [[nodiscard]] const Block& value(netlist::NetId net, std::size_t block = 0) const {
    return values_[net * blocks_ + block];
  }
  /// Bit of a net in a global lane index in [0, lanes()).
  [[nodiscard]] bool value_in_lane(netlist::NetId net, std::size_t lane) const {
    return values_[net * blocks_ + lane / kLanes].lane(lane % kLanes);
  }

  /// Current Q block of a simulated flip-flop.
  /// \throws std::invalid_argument for a cell that is not a flip-flop or a
  /// flip-flop pruned from the simulation.
  [[nodiscard]] const Block& ff_state(netlist::CellId ff_cell,
                                      std::size_t block = 0) const;

  [[nodiscard]] const netlist::Netlist& netlist() const noexcept { return *nl_; }

  /// Number of eval()/eval_incremental() sweeps since construction.
  [[nodiscard]] std::uint64_t eval_count() const noexcept { return eval_count_; }

  /// Individual op evaluations since construction (one per op per sweep,
  /// regardless of block width or block count): eval() adds the full op
  /// count, eval_incremental() only the ops it actually visited.
  [[nodiscard]] std::uint64_t ops_evaluated() const noexcept {
    return ops_evaluated_;
  }

  /// FF-block captures since construction: tick() adds num_blocks() per
  /// flip-flop it visits (num_ffs() * num_blocks() after a full eval()).
  [[nodiscard]] std::uint64_t ff_block_ticks() const noexcept {
    return ff_block_ticks_;
  }

 private:
  struct Op {
    netlist::CellFunc func;
    std::uint8_t num_inputs;
    netlist::NetId in[4];
    netlist::NetId out;
  };
  struct FfSlot {
    netlist::NetId d;
    netlist::NetId q;
    Block init;
  };

  // ff_slot_ entries of cells that are not simulated flip-flops.
  static constexpr std::uint32_t kNotFlipFlop = ~std::uint32_t{0};
  static constexpr std::uint32_t kPrunedFlipFlop = kNotFlipFlop - 1;

  void build_ops(const netlist::Netlist& nl, std::span<const std::uint8_t> live_nets);
  void mark_dirty(netlist::NetId net);
  void schedule_fanout(netlist::NetId net);
  void clear_dirty();

  const netlist::Netlist* nl_;
  std::size_t blocks_ = 1;
  std::vector<Op> ops_;              // simulated combinational cells, level-major
  std::vector<std::uint32_t> level_begin_;  // ops_ index of each level, + end
  std::vector<FfSlot> ffs_;          // simulated flip-flops
  std::vector<Block> values_;        // net-major: blocks_ blocks per net
  std::vector<Block> next_state_;    // scratch for tick(), tick_slots_ order
  std::vector<std::uint32_t> ff_slot_;  // CellId -> index into ffs_ (or kNot/kPruned)

  static void set_bit(std::vector<std::uint64_t>& bits, std::uint32_t index) {
    bits[index / 64] |= std::uint64_t{1} << (index % 64);
  }

  // Dirty-set machinery: net -> reading op and net -> FF slot whose D it is,
  // both in CSR form, and one pending bit per op (ops_ order) and per FF
  // slot (ffs_ order).
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<std::uint32_t> fanout_ops_;
  std::vector<std::uint32_t> ff_reader_begin_;
  std::vector<std::uint32_t> ff_readers_;
  std::vector<netlist::NetId> dirty_nets_;
  std::vector<std::uint8_t> net_dirty_;
  std::vector<std::uint64_t> op_pending_;
  std::vector<std::uint64_t> ff_pending_;
  std::vector<std::uint32_t> tick_slots_;  // scratch for tick(), ffs_ indices
  bool coherent_ = false;

  std::uint64_t eval_count_ = 0;
  std::uint64_t ops_evaluated_ = 0;
  std::uint64_t ff_block_ticks_ = 0;
};

extern template class WideSimulator<1>;
extern template class WideSimulator<4>;
extern template class WideSimulator<8>;

}  // namespace ffr::sim
