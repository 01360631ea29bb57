#include "sim/packed_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace ffr::sim {

using netlist::CellFunc;

namespace {

[[nodiscard]] Lanes compute_op(CellFunc func, const netlist::NetId* in,
                               const Lanes* v) {
  switch (func) {
    case CellFunc::kConst0: return 0;
    case CellFunc::kConst1: return kAllLanes;
    case CellFunc::kBuf: return v[in[0]];
    case CellFunc::kInv: return ~v[in[0]];
    case CellFunc::kAnd2: return v[in[0]] & v[in[1]];
    case CellFunc::kAnd3: return v[in[0]] & v[in[1]] & v[in[2]];
    case CellFunc::kAnd4: return v[in[0]] & v[in[1]] & v[in[2]] & v[in[3]];
    case CellFunc::kNand2: return ~(v[in[0]] & v[in[1]]);
    case CellFunc::kNand3: return ~(v[in[0]] & v[in[1]] & v[in[2]]);
    case CellFunc::kNand4: return ~(v[in[0]] & v[in[1]] & v[in[2]] & v[in[3]]);
    case CellFunc::kOr2: return v[in[0]] | v[in[1]];
    case CellFunc::kOr3: return v[in[0]] | v[in[1]] | v[in[2]];
    case CellFunc::kOr4: return v[in[0]] | v[in[1]] | v[in[2]] | v[in[3]];
    case CellFunc::kNor2: return ~(v[in[0]] | v[in[1]]);
    case CellFunc::kNor3: return ~(v[in[0]] | v[in[1]] | v[in[2]]);
    case CellFunc::kNor4: return ~(v[in[0]] | v[in[1]] | v[in[2]] | v[in[3]]);
    case CellFunc::kXor2: return v[in[0]] ^ v[in[1]];
    case CellFunc::kXnor2: return ~(v[in[0]] ^ v[in[1]]);
    case CellFunc::kMux2: {
      const Lanes sel = v[in[2]];
      return (sel & v[in[1]]) | (~sel & v[in[0]]);
    }
    case CellFunc::kAoi21: return ~((v[in[0]] & v[in[1]]) | v[in[2]]);
    case CellFunc::kOai21: return ~((v[in[0]] | v[in[1]]) & v[in[2]]);
    case CellFunc::kDff:
      throw std::logic_error("DFF in combinational op list");
  }
  throw std::logic_error("compute_op: unknown cell function");
}

}  // namespace

PackedSimulator::PackedSimulator(const netlist::Netlist& nl) : nl_(&nl) {
  if (!nl.finalized()) {
    throw std::invalid_argument("PackedSimulator: netlist not finalized");
  }
  values_.assign(nl.num_nets(), 0);
  ops_.reserve(nl.topo_order().size());
  for (const netlist::CellId id : nl.topo_order()) {
    const netlist::Cell& cell = nl.cell(id);
    Op op;
    op.func = cell.func;
    op.num_inputs = static_cast<std::uint8_t>(cell.inputs.size());
    for (std::size_t i = 0; i < cell.inputs.size(); ++i) op.in[i] = cell.inputs[i];
    op.out = cell.output;
    ops_.push_back(op);
  }
  ff_slot_.assign(nl.num_cells(), ~std::uint32_t{0});
  for (const netlist::CellId id : nl.flip_flops()) {
    const netlist::Cell& cell = nl.cell(id);
    ff_slot_[id] = static_cast<std::uint32_t>(ffs_.size());
    ffs_.push_back(FfSlot{cell.inputs[0], cell.output, broadcast(cell.init_value)});
  }
  next_state_.assign(ffs_.size(), 0);
  reset();
}

void PackedSimulator::reset() {
  std::fill(values_.begin(), values_.end(), Lanes{0});
  for (const FfSlot& ff : ffs_) values_[ff.q] = ff.init;
  eval();
}

void PackedSimulator::set_input(netlist::NetId net, Lanes value) {
  if (net >= values_.size() || nl_->net(net).pi_index < 0) {
    throw std::invalid_argument("set_input: not a primary input net");
  }
  values_[net] = value;
}

void PackedSimulator::eval() {
  ++eval_count_;
  ops_evaluated_ += ops_.size();
  Lanes* const v = values_.data();
  for (const Op& op : ops_) {
    v[op.out] = compute_op(op.func, op.in, v);
  }
}

void PackedSimulator::tick() {
  for (std::size_t i = 0; i < ffs_.size(); ++i) next_state_[i] = values_[ffs_[i].d];
  for (std::size_t i = 0; i < ffs_.size(); ++i) values_[ffs_[i].q] = next_state_[i];
}

void PackedSimulator::inject(netlist::CellId ff_cell, Lanes lane_mask) {
  const std::uint32_t slot = ff_slot_.at(ff_cell);
  if (slot == ~std::uint32_t{0}) {
    throw std::invalid_argument("inject: cell is not a flip-flop");
  }
  values_[ffs_[slot].q] ^= lane_mask;
}

Lanes PackedSimulator::ff_state(netlist::CellId ff_cell) const {
  const std::uint32_t slot = ff_slot_.at(ff_cell);
  if (slot == ~std::uint32_t{0}) {
    throw std::invalid_argument("ff_state: cell is not a flip-flop");
  }
  return values_[ffs_[slot].q];
}

}  // namespace ffr::sim
