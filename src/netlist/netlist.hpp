#pragma once
/// \file netlist.hpp
/// \brief Gate-level netlist representation: cells connected by single-driver nets,
/// with primary I/O ports, register buses and a single implicit clock domain.
/// This is the substrate everything else operates on — simulation, fault
/// injection and feature extraction.

#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/cell_library.hpp"
#include "netlist/content_key.hpp"

namespace ffr::netlist {

using NetId = std::uint32_t;
using CellId = std::uint32_t;
inline constexpr NetId kNoNet = std::numeric_limits<NetId>::max();
inline constexpr CellId kNoCell = std::numeric_limits<CellId>::max();

/// A cell instance. Sequential cells (DFF) have one input (D) and their
/// output is the register state Q; `init_value` is the power-on state.
struct Cell {
  std::string name;
  CellFunc func = CellFunc::kBuf;
  DriveStrength drive = DriveStrength::kX1;
  std::vector<NetId> inputs;
  NetId output = kNoNet;
  bool init_value = false;  // DFF only
};

/// A net has exactly one driver: either a cell output or a primary input.
struct Net {
  std::string name;
  CellId driver = kNoCell;       // kNoCell if driven by a primary input
  std::int32_t pi_index = -1;    // >=0 if this net is a primary input port
  std::vector<CellId> readers;   // cells with this net on an input pin
};

/// A named group of flip-flops forming a register bus (e.g. "tx_data[7:0]").
struct RegisterBus {
  std::string name;
  std::vector<CellId> flip_flops;  // position i == bit i
};

class Netlist {
 public:
  explicit Netlist(std::string name = "top") : name_(std::move(name)) {}

  // ---- construction (used by NetlistBuilder) ------------------------------

  NetId add_net(std::string name);
  /// Adds a cell driving a fresh net; returns the cell id.
  CellId add_cell(Cell cell);
  NetId add_primary_input(std::string name);
  void mark_primary_output(NetId net, std::string port_name);
  void add_register_bus(RegisterBus bus);

  /// Mutable cell access for construction-time passes (drive sizing).
  /// The returned reference must not be used after the next finalize():
  /// finalize() starts a fresh content_key() memo, and a write through an
  /// older reference would change the content under that memo, leaving the
  /// key stale. Call mutable_cell() again after finalize() to edit further.
  [[nodiscard]] Cell& mutable_cell(CellId id) {
    invalidate();
    return cells_.at(id);
  }

  /// Recomputes reader lists and the flip-flop index, checks single-driver
  /// and connectivity invariants, and verifies combinational acyclicity.
  /// Throws std::runtime_error with a diagnostic on violation. Does not
  /// compute content_key(); it only opens an empty memo for it.
  void finalize();

  // ---- queries -------------------------------------------------------------

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t num_cells() const noexcept { return cells_.size(); }
  [[nodiscard]] std::size_t num_nets() const noexcept { return nets_.size(); }

  [[nodiscard]] const Cell& cell(CellId id) const { return cells_.at(id); }
  [[nodiscard]] const Net& net(NetId id) const { return nets_.at(id); }
  [[nodiscard]] std::span<const Cell> cells() const noexcept { return cells_; }
  [[nodiscard]] std::span<const Net> nets() const noexcept { return nets_; }

  [[nodiscard]] std::span<const NetId> primary_inputs() const noexcept {
    return primary_inputs_;
  }
  [[nodiscard]] std::span<const NetId> primary_outputs() const noexcept {
    return primary_outputs_;
  }
  [[nodiscard]] const std::vector<std::string>& primary_output_names() const noexcept {
    return primary_output_names_;
  }

  /// All sequential cells, in creation order. Valid after finalize().
  [[nodiscard]] std::span<const CellId> flip_flops() const noexcept {
    return flip_flops_;
  }
  [[nodiscard]] std::size_t num_flip_flops() const noexcept {
    return flip_flops_.size();
  }

  /// Combinational cells in topological order (inputs before readers),
  /// suitable for single-pass evaluation. Valid after finalize().
  [[nodiscard]] std::span<const CellId> topo_order() const noexcept {
    return topo_order_;
  }

  [[nodiscard]] std::span<const RegisterBus> register_buses() const noexcept {
    return buses_;
  }

  /// Bus membership of a flip-flop: (bus index, bit position), if any.
  [[nodiscard]] std::optional<std::pair<std::size_t, std::size_t>> bus_of(
      CellId ff) const;

  [[nodiscard]] std::optional<CellId> find_cell(std::string_view name) const;
  [[nodiscard]] std::optional<NetId> find_net(std::string_view name) const;

  /// Total cell area (library estimate), for reporting.
  [[nodiscard]] double total_area_um2() const;

  /// Human-readable one-line summary (#cells, #FFs, #nets, #PIs, #POs).
  [[nodiscard]] std::string summary() const;

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  /// The netlist's content key (render_content_key(): FNV-1a over the
  /// length-prefixed to_verilog() rendering), computed on the first call
  /// after finalize() and memoized until the next mutation or finalize().
  /// Concurrent first calls on one netlist render once. Copies share the
  /// memo (their content is equal when copied); a mutator or finalize()
  /// on either copy drops only that copy's memo. A moved-from netlist
  /// renders on every call instead of serving a memo.
  /// \throws std::invalid_argument when the netlist is not finalized.
  [[nodiscard]] ContentHash content_key() const;

 private:
  /// The content_key() memo. Held by shared_ptr so that Netlist stays
  /// copyable and movable (std::once_flag is neither) and so that copies
  /// share one rendering.
  struct KeyMemo {
    std::once_flag once;
    ContentHash key;
    std::exception_ptr error;  ///< What rendering threw, rethrown per call.
  };

  /// Drops the finalized state and the content_key() memo (every mutator).
  void invalidate() noexcept {
    finalized_ = false;
    key_memo_.reset();
  }
  void check_invariants() const;
  void compute_topo_order();

  std::string name_;
  std::vector<Cell> cells_;
  std::vector<Net> nets_;
  std::vector<NetId> primary_inputs_;
  std::vector<NetId> primary_outputs_;
  std::vector<std::string> primary_output_names_;
  std::vector<CellId> flip_flops_;
  std::vector<CellId> topo_order_;
  std::vector<RegisterBus> buses_;
  std::unordered_map<std::string, CellId> cell_by_name_;
  std::unordered_map<std::string, NetId> net_by_name_;
  std::unordered_map<CellId, std::pair<std::size_t, std::size_t>> ff_bus_;
  /// Non-null only between finalize() and the next mutation. Never reset
  /// on a const path, so concurrent content_key() calls see one slot.
  std::shared_ptr<KeyMemo> key_memo_;
  bool finalized_ = false;
};

/// Deep structural comparison in creation order: module name, nets (name,
/// PI position), cells (name, function, drive, init value, connections by
/// net name), primary outputs (port name, source net) and register buses
/// must all match index for index. This is the read -> write -> read oracle
/// of the Verilog round-trip tests; it is stricter than graph isomorphism
/// (a reordered but isomorphic netlist compares unequal). When `mismatch`
/// is non-null the first difference is described into it.
[[nodiscard]] bool structurally_equal(const Netlist& a, const Netlist& b,
                                      std::string* mismatch = nullptr);

}  // namespace ffr::netlist
