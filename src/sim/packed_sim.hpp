#pragma once
/// \file packed_sim.hpp
/// \brief Bit-parallel gate-level simulator. Every net carries a 64-bit word whose
/// bit L is the value of the net in simulation lane L, so one pass through
/// the levelized netlist advances 64 independent fault scenarios at once
/// (classic parallel fault simulation). A fault-free ("golden") run simply
/// drives identical stimulus on all lanes and reads lane 0.
///
/// This is the full-sweep oracle: eval() evaluates every op in topological
/// order and tick() captures every flip-flop, with no event-driven shortcut.
/// reference_sim checks it, and the flat run_testbench()/run_campaign()
/// reference rests on it. Every campaign pass and golden run executes on
/// WideSimulator<W> (wide_sim.hpp), whose lanes must match this simulator
/// bit-for-bit on every circuit, from reset or from a checkpoint.

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace ffr::sim {

using Lanes = std::uint64_t;
inline constexpr Lanes kAllLanes = ~Lanes{0};
inline constexpr std::size_t kNumLanes = 64;

[[nodiscard]] constexpr Lanes broadcast(bool value) noexcept {
  return value ? kAllLanes : Lanes{0};
}

class PackedSimulator {
 public:
  /// The netlist must be finalized. The simulator keeps a reference; the
  /// netlist must outlive it.
  explicit PackedSimulator(const netlist::Netlist& nl);

  /// Resets every flip-flop to its init value (all lanes) and clears inputs.
  void reset();

  // ---- inputs ----------------------------------------------------------------

  void set_input(netlist::NetId net, Lanes value);
  void set_input_broadcast(netlist::NetId net, bool value) {
    set_input(net, broadcast(value));
  }

  // ---- execution --------------------------------------------------------------

  /// Re-evaluates all combinational logic from current inputs + FF states.
  void eval();

  /// Clock edge: every flip-flop captures its D input. Call eval() first.
  void tick();

  /// Flips the stored state of a flip-flop in the given lanes (SEU model).
  /// Takes effect on the Q value immediately; call eval() to propagate.
  void inject(netlist::CellId ff_cell, Lanes lane_mask);

  // ---- observation --------------------------------------------------------------

  [[nodiscard]] Lanes value(netlist::NetId net) const { return values_[net]; }
  [[nodiscard]] bool value_in_lane(netlist::NetId net, std::size_t lane) const {
    return ((values_[net] >> lane) & 1u) != 0;
  }

  /// Current Q value of a flip-flop.
  [[nodiscard]] Lanes ff_state(netlist::CellId ff_cell) const;

  [[nodiscard]] const netlist::Netlist& netlist() const noexcept { return *nl_; }

  /// Number of eval() sweeps since construction.
  [[nodiscard]] std::uint64_t eval_count() const noexcept { return eval_count_; }

  /// Individual op evaluations since construction (the full op count per
  /// eval()).
  [[nodiscard]] std::uint64_t ops_evaluated() const noexcept {
    return ops_evaluated_;
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
    Lanes init;
  };

  const netlist::Netlist* nl_;
  std::vector<Op> ops_;                 // combinational cells, topo order
  std::vector<FfSlot> ffs_;             // all flip-flops
  std::vector<Lanes> values_;           // per net
  std::vector<Lanes> next_state_;       // scratch for tick()
  std::vector<std::uint32_t> ff_slot_;  // CellId -> index into ffs_ (or ~0)

  std::uint64_t eval_count_ = 0;
  std::uint64_t ops_evaluated_ = 0;
};

}  // namespace ffr::sim
