#include "sim/wide_sim.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>

namespace ffr::sim {

using netlist::CellFunc;

namespace {

/// Block-wide gate kernel: the same truth tables as the scalar compute_op in
/// packed_sim.cpp, expressed over LaneBlock operators so one evaluation
/// advances W * 64 lanes per block. The operand pointers are formed once per
/// op and the block loop runs inside each case: `blocks` independent SIMD
/// ops on contiguous storage, which keeps the vector units busy once the
/// register width itself is exhausted. Each result block b is handed to
/// `store(b, value)`, so the dirty-set sweep can fold its change check into
/// the same loop. Kept internal-linkage so each translation unit compiles it
/// at its own vector width, and always inlined so each sweep loop
/// specializes the dispatch and the store to its own call site.
template <std::size_t W, typename Store>
[[gnu::always_inline]] inline void eval_op_blocks(CellFunc func,
                                                  const netlist::NetId* in,
                                                  const LaneBlock<W>* v,
                                                  std::size_t blocks,
                                                  Store&& store) {
  using B = LaneBlock<W>;
  const auto arg = [&](std::size_t k) {
    return v + static_cast<std::size_t>(in[k]) * blocks;
  };
  switch (func) {
    case CellFunc::kConst0:
      for (std::size_t b = 0; b < blocks; ++b) store(b, B::zero());
      return;
    case CellFunc::kConst1:
      for (std::size_t b = 0; b < blocks; ++b) store(b, B::ones());
      return;
    case CellFunc::kBuf: {
      const B* a = arg(0);
      for (std::size_t b = 0; b < blocks; ++b) store(b, a[b]);
      return;
    }
    case CellFunc::kInv: {
      const B* a = arg(0);
      for (std::size_t b = 0; b < blocks; ++b) store(b, ~a[b]);
      return;
    }
    case CellFunc::kAnd2: {
      const B* a = arg(0);
      const B* c = arg(1);
      for (std::size_t b = 0; b < blocks; ++b) store(b, a[b] & c[b]);
      return;
    }
    case CellFunc::kAnd3: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      for (std::size_t b = 0; b < blocks; ++b) store(b, a[b] & c[b] & d[b]);
      return;
    }
    case CellFunc::kAnd4: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      const B* e = arg(3);
      for (std::size_t b = 0; b < blocks; ++b) {
        store(b, a[b] & c[b] & d[b] & e[b]);
      }
      return;
    }
    case CellFunc::kNand2: {
      const B* a = arg(0);
      const B* c = arg(1);
      for (std::size_t b = 0; b < blocks; ++b) store(b, ~(a[b] & c[b]));
      return;
    }
    case CellFunc::kNand3: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      for (std::size_t b = 0; b < blocks; ++b) store(b, ~(a[b] & c[b] & d[b]));
      return;
    }
    case CellFunc::kNand4: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      const B* e = arg(3);
      for (std::size_t b = 0; b < blocks; ++b) {
        store(b, ~(a[b] & c[b] & d[b] & e[b]));
      }
      return;
    }
    case CellFunc::kOr2: {
      const B* a = arg(0);
      const B* c = arg(1);
      for (std::size_t b = 0; b < blocks; ++b) store(b, a[b] | c[b]);
      return;
    }
    case CellFunc::kOr3: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      for (std::size_t b = 0; b < blocks; ++b) store(b, a[b] | c[b] | d[b]);
      return;
    }
    case CellFunc::kOr4: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      const B* e = arg(3);
      for (std::size_t b = 0; b < blocks; ++b) {
        store(b, a[b] | c[b] | d[b] | e[b]);
      }
      return;
    }
    case CellFunc::kNor2: {
      const B* a = arg(0);
      const B* c = arg(1);
      for (std::size_t b = 0; b < blocks; ++b) store(b, ~(a[b] | c[b]));
      return;
    }
    case CellFunc::kNor3: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      for (std::size_t b = 0; b < blocks; ++b) store(b, ~(a[b] | c[b] | d[b]));
      return;
    }
    case CellFunc::kNor4: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      const B* e = arg(3);
      for (std::size_t b = 0; b < blocks; ++b) {
        store(b, ~(a[b] | c[b] | d[b] | e[b]));
      }
      return;
    }
    case CellFunc::kXor2: {
      const B* a = arg(0);
      const B* c = arg(1);
      for (std::size_t b = 0; b < blocks; ++b) store(b, a[b] ^ c[b]);
      return;
    }
    case CellFunc::kXnor2: {
      const B* a = arg(0);
      const B* c = arg(1);
      for (std::size_t b = 0; b < blocks; ++b) store(b, ~(a[b] ^ c[b]));
      return;
    }
    case CellFunc::kMux2: {
      const B* lo = arg(0);
      const B* hi = arg(1);
      const B* sel = arg(2);
      for (std::size_t b = 0; b < blocks; ++b) {
        store(b, (sel[b] & hi[b]) | (~sel[b] & lo[b]));
      }
      return;
    }
    case CellFunc::kAoi21: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      for (std::size_t b = 0; b < blocks; ++b) store(b, ~((a[b] & c[b]) | d[b]));
      return;
    }
    case CellFunc::kOai21: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      for (std::size_t b = 0; b < blocks; ++b) store(b, ~((a[b] | c[b]) & d[b]));
      return;
    }
    case CellFunc::kDff:
      throw std::logic_error("DFF in combinational op list");
  }
  throw std::logic_error("eval_op_blocks: unknown cell function");
}

/// Net -> reader fanout in CSR form (counting sort by net): the readers of
/// net n are items[begin[n], begin[n + 1]), ascending; `reads(i)` is the
/// span of nets reader i reads.
template <typename Reads>
void build_reader_csr(std::size_t num_nets, std::size_t num_readers,
                      const Reads& reads, std::vector<std::uint32_t>& begin,
                      std::vector<std::uint32_t>& items) {
  begin.assign(num_nets + 1, 0);
  for (std::size_t i = 0; i < num_readers; ++i) {
    for (const netlist::NetId net : reads(i)) ++begin[net + 1];
  }
  for (std::size_t n = 1; n < begin.size(); ++n) begin[n] += begin[n - 1];
  items.resize(begin.back());
  std::vector<std::uint32_t> cursor(begin.begin(), begin.end() - 1);
  for (std::size_t i = 0; i < num_readers; ++i) {
    for (const netlist::NetId net : reads(i)) {
      items[cursor[net]++] = static_cast<std::uint32_t>(i);
    }
  }
}

}  // namespace

template <std::size_t W>
WideSimulator<W>::WideSimulator(const netlist::Netlist& nl, std::size_t blocks,
                                std::span<const std::uint8_t> live_nets)
    : nl_(&nl), blocks_(blocks) {
  if (!nl.finalized()) {
    throw std::invalid_argument("WideSimulator: netlist not finalized");
  }
  if (blocks == 0 || blocks > kMaxLaneBlocksPerPass) {
    throw std::invalid_argument("WideSimulator: blocks out of range");
  }
  if (!live_nets.empty() && live_nets.size() != nl.num_nets()) {
    throw std::invalid_argument("WideSimulator: live_nets needs one flag per net");
  }
  values_.assign(nl.num_nets() * blocks_, Block::zero());
  build_ops(nl, live_nets);
  ff_slot_.assign(nl.num_cells(), kNotFlipFlop);
  for (const netlist::CellId id : nl.flip_flops()) {
    const netlist::Cell& cell = nl.cell(id);
    if (!live_nets.empty() && live_nets[cell.output] == 0) {
      ff_slot_[id] = kPrunedFlipFlop;
      continue;
    }
    ff_slot_[id] = static_cast<std::uint32_t>(ffs_.size());
    ffs_.push_back(FfSlot{cell.inputs[0], cell.output,
                          cell.init_value ? Block::ones() : Block::zero()});
  }
  next_state_.assign(ffs_.size() * blocks_, Block::zero());

  build_reader_csr(nl.num_nets(), ops_.size(),
                   [&](std::size_t i) {
                     return std::span<const netlist::NetId>(ops_[i].in,
                                                            ops_[i].num_inputs);
                   },
                   fanout_begin_, fanout_ops_);
  build_reader_csr(nl.num_nets(), ffs_.size(),
                   [&](std::size_t i) {
                     return std::span<const netlist::NetId>(&ffs_[i].d, 1);
                   },
                   ff_reader_begin_, ff_readers_);

  net_dirty_.assign(nl.num_nets(), 0);
  op_pending_.assign((ops_.size() + 63) / 64, 0);
  ff_pending_.assign((ffs_.size() + 63) / 64, 0);
  tick_slots_.reserve(ffs_.size());
  dirty_nets_.reserve(64);

  reset();
}

template <std::size_t W>
void WideSimulator<W>::build_ops(const netlist::Netlist& nl,
                                 std::span<const std::uint8_t> live_nets) {
  // Level of every op in topological order: constants are level 0, any
  // other op is one above its deepest input net. Nets not driven by an op
  // (primary inputs, FF Qs) are level 0, like constant outputs.
  constexpr std::size_t kNumFuncs = static_cast<std::size_t>(CellFunc::kDff) + 1;
  std::vector<netlist::CellId> topo;
  topo.reserve(nl.topo_order().size());
  for (const netlist::CellId id : nl.topo_order()) {
    if (live_nets.empty() || live_nets[nl.cell(id).output] != 0) topo.push_back(id);
  }
  std::vector<std::uint32_t> net_level(nl.num_nets(), 0);
  std::vector<std::uint32_t> key(topo.size());
  std::uint32_t num_levels = 1;
  for (std::size_t i = 0; i < topo.size(); ++i) {
    const netlist::Cell& cell = nl.cell(topo[i]);
    std::uint32_t level = 0;
    for (const netlist::NetId in : cell.inputs) {
      level = std::max(level, net_level[in] + 1);
    }
    net_level[cell.output] = level;
    num_levels = std::max(num_levels, level + 1);
    key[i] = level * kNumFuncs + static_cast<std::uint32_t>(cell.func);
  }
  // One counting sort over (level, function) keys, stable in topological
  // position: level-major order is still topological, and grouping each
  // level by function keeps the gate dispatch predictable.
  std::vector<std::uint32_t> bucket(num_levels * kNumFuncs + 1, 0);
  for (const std::uint32_t k : key) ++bucket[k + 1];
  for (std::size_t k = 1; k < bucket.size(); ++k) bucket[k] += bucket[k - 1];
  level_begin_.resize(num_levels + 1);
  for (std::size_t l = 0; l <= num_levels; ++l) level_begin_[l] = bucket[l * kNumFuncs];
  ops_.resize(topo.size());
  for (std::size_t i = 0; i < topo.size(); ++i) {
    const netlist::Cell& cell = nl.cell(topo[i]);
    Op& op = ops_[bucket[key[i]]++];
    op.func = cell.func;
    op.num_inputs = static_cast<std::uint8_t>(cell.inputs.size());
    std::copy(cell.inputs.begin(), cell.inputs.end(), op.in);
    op.out = cell.output;
  }
}

template <std::size_t W>
void WideSimulator<W>::reset() {
  std::fill(values_.begin(), values_.end(), Block::zero());
  for (const FfSlot& ff : ffs_) {
    for (std::size_t b = 0; b < blocks_; ++b) values_[ff.q * blocks_ + b] = ff.init;
  }
  eval();
}

template <std::size_t W>
void WideSimulator<W>::set_input(netlist::NetId net, const Block& value) {
  if (net >= net_dirty_.size() || nl_->net(net).pi_index < 0) {
    throw std::invalid_argument("set_input: not a primary input net");
  }
  Block* slots = values_.data() + static_cast<std::size_t>(net) * blocks_;
  bool changed = false;
  for (std::size_t b = 0; b < blocks_; ++b) {
    if (differs(slots[b], value)) {
      slots[b] = value;
      changed = true;
    }
  }
  if (changed) mark_dirty(net);
}

template <std::size_t W>
void WideSimulator<W>::set_input_block(netlist::NetId net, std::size_t block,
                                       const Block& value) {
  if (net >= net_dirty_.size() || nl_->net(net).pi_index < 0) {
    throw std::invalid_argument("set_input_block: not a primary input net");
  }
  if (block >= blocks_) {
    throw std::invalid_argument("set_input_block: block out of range");
  }
  Block& slot = values_[static_cast<std::size_t>(net) * blocks_ + block];
  if (differs(slot, value)) {
    slot = value;
    mark_dirty(net);
  }
}

template <std::size_t W>
void WideSimulator<W>::mark_dirty(netlist::NetId net) {
  if (!net_dirty_[net]) {
    net_dirty_[net] = 1;
    dirty_nets_.push_back(net);
  }
}

template <std::size_t W>
void WideSimulator<W>::schedule_fanout(netlist::NetId net) {
  for (std::uint32_t f = fanout_begin_[net]; f < fanout_begin_[net + 1]; ++f) {
    set_bit(op_pending_, fanout_ops_[f]);
  }
  for (std::uint32_t f = ff_reader_begin_[net]; f < ff_reader_begin_[net + 1]; ++f) {
    set_bit(ff_pending_, ff_readers_[f]);
  }
}

template <std::size_t W>
void WideSimulator<W>::clear_dirty() {
  for (const netlist::NetId net : dirty_nets_) net_dirty_[net] = 0;
  dirty_nets_.clear();
}

template <std::size_t W>
void WideSimulator<W>::eval() {
  ++eval_count_;
  ops_evaluated_ += ops_.size();
  Block* const v = values_.data();
  if (blocks_ == 1) {
    // Single-block sweeps (64-lane passes, the golden run) with the block
    // count folded into the inlined kernel.
    for (const Op& op : ops_) {
      Block* out = v + op.out;
      eval_op_blocks<W>(op.func, op.in, v, 1,
                        [out](std::size_t b, const Block& x) { out[b] = x; });
    }
  } else {
    for (const Op& op : ops_) {
      Block* out = v + static_cast<std::size_t>(op.out) * blocks_;
      eval_op_blocks<W>(op.func, op.in, v, blocks_,
                        [out](std::size_t b, const Block& x) { out[b] = x; });
    }
  }
  clear_dirty();
  coherent_ = true;
  // A full sweep may have changed any D: the next tick visits every FF.
  std::fill(ff_pending_.begin(), ff_pending_.end(), ~std::uint64_t{0});
  if (ffs_.size() % 64 != 0) {
    ff_pending_.back() = (std::uint64_t{1} << (ffs_.size() % 64)) - 1;
  }
}

template <std::size_t W>
void WideSimulator<W>::eval_incremental() {
  if (!coherent_) {
    eval();
    return;
  }
  ++eval_count_;
  Block* const v = values_.data();
  // A dirty primary input or Q net schedules its reading ops and the FFs
  // whose D it is.
  for (const netlist::NetId net : dirty_nets_) {
    net_dirty_[net] = 0;
    schedule_fanout(net);
  }
  dirty_nets_.clear();
  std::uint64_t evaluated = 0;
  std::uint64_t* const pending = op_pending_.data();
  // An op of level k reads only lower levels, so it schedules only ops of
  // later levels: once the lower levels are done, a level's pending bits
  // are final. Each word overlapping the level's range is read and cleared
  // once, and that snapshot is evaluated.
  for (std::size_t level = 0; level + 1 < level_begin_.size(); ++level) {
    const std::size_t begin = level_begin_[level];
    const std::size_t end = level_begin_[level + 1];
    for (std::size_t w = begin / 64; w * 64 < end; ++w) {
      std::uint64_t range = ~std::uint64_t{0};
      if (w == begin / 64) range <<= begin % 64;
      if (end < (w + 1) * 64) range &= (std::uint64_t{1} << (end % 64)) - 1;
      std::uint64_t bits = pending[w] & range;
      if (bits == 0) continue;
      pending[w] &= ~range;
      evaluated += static_cast<std::uint64_t>(std::popcount(bits));
      for (; bits != 0; bits &= bits - 1) {
        const Op& op = ops_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
        // Store unconditionally; propagate iff any block changed.
        Block* out = v + static_cast<std::size_t>(op.out) * blocks_;
        Block diff = Block::zero();
        eval_op_blocks<W>(op.func, op.in, v, blocks_,
                          [out, &diff](std::size_t b, const Block& x) {
                            diff |= x ^ out[b];
                            out[b] = x;
                          });
        if (any(diff)) schedule_fanout(op.out);
      }
    }
  }
  ops_evaluated_ += evaluated;
}

template <std::size_t W>
void WideSimulator<W>::tick() {
  // Only FFs whose D changed since the last tick, or whose Q was flipped,
  // can differ from their D; every other FF already holds Q == D.
  tick_slots_.clear();
  for (std::size_t w = 0; w < ff_pending_.size(); ++w) {
    for (std::uint64_t bits = ff_pending_[w]; bits != 0; bits &= bits - 1) {
      tick_slots_.push_back(
          static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
    }
    ff_pending_[w] = 0;
  }
  ff_block_ticks_ += tick_slots_.size() * blocks_;
  // Gather every D before writing any Q, so shift chains stay two-phase.
  for (std::size_t k = 0; k < tick_slots_.size(); ++k) {
    const Block* d =
        values_.data() + static_cast<std::size_t>(ffs_[tick_slots_[k]].d) * blocks_;
    for (std::size_t b = 0; b < blocks_; ++b) next_state_[k * blocks_ + b] = d[b];
  }
  for (std::size_t k = 0; k < tick_slots_.size(); ++k) {
    const FfSlot& ff = ffs_[tick_slots_[k]];
    Block* q = values_.data() + static_cast<std::size_t>(ff.q) * blocks_;
    bool changed = false;
    for (std::size_t b = 0; b < blocks_; ++b) {
      if (differs(q[b], next_state_[k * blocks_ + b])) {
        q[b] = next_state_[k * blocks_ + b];
        changed = true;
      }
    }
    if (changed) mark_dirty(ff.q);
  }
}

template <std::size_t W>
void WideSimulator<W>::inject(netlist::CellId ff_cell, const Block& mask,
                              std::size_t block) {
  const std::uint32_t slot = ff_slot_.at(ff_cell);
  if (slot == kNotFlipFlop) {
    throw std::invalid_argument("inject: cell is not a flip-flop");
  }
  if (block >= blocks_) {
    throw std::invalid_argument("inject: block out of range");
  }
  if (slot != kPrunedFlipFlop && any(mask)) {
    values_[static_cast<std::size_t>(ffs_[slot].q) * blocks_ + block] ^= mask;
    mark_dirty(ffs_[slot].q);
    set_bit(ff_pending_, slot);  // Q != D now: the next tick must restore it
  }
}

template <std::size_t W>
void WideSimulator<W>::snapshot_ff_state(std::vector<Block>& out) const {
  out.resize(ffs_.size() * blocks_);
  for (std::size_t i = 0; i < ffs_.size(); ++i) {
    for (std::size_t b = 0; b < blocks_; ++b) {
      out[i * blocks_ + b] = values_[static_cast<std::size_t>(ffs_[i].q) * blocks_ + b];
    }
  }
}

template <std::size_t W>
void WideSimulator<W>::restore_ff_state(std::span<const Block> state) {
  if (state.size() != ffs_.size() * blocks_) {
    throw std::invalid_argument("restore_ff_state: state size mismatch");
  }
  for (std::size_t i = 0; i < ffs_.size(); ++i) {
    for (std::size_t b = 0; b < blocks_; ++b) {
      values_[static_cast<std::size_t>(ffs_[i].q) * blocks_ + b] = state[i * blocks_ + b];
    }
  }
  // Combinational nets are now stale relative to the restored registers;
  // force the next incremental sweep to run in full. Note this covers nets
  // whose blocks were dirtied before the restore too — the stale dirty set
  // is superseded by the full resync sweep, never consulted to skip work.
  coherent_ = false;
}

template <std::size_t W>
const typename WideSimulator<W>::Block& WideSimulator<W>::ff_state(
    netlist::CellId ff_cell, std::size_t block) const {
  const std::uint32_t slot = ff_slot_.at(ff_cell);
  if (slot == kNotFlipFlop) {
    throw std::invalid_argument("ff_state: cell is not a flip-flop");
  }
  if (slot == kPrunedFlipFlop) {
    throw std::invalid_argument("ff_state: flip-flop pruned from the simulation");
  }
  return values_[static_cast<std::size_t>(ffs_[slot].q) * blocks_ + block];
}

template class WideSimulator<1>;
template class WideSimulator<4>;
template class WideSimulator<8>;

}  // namespace ffr::sim
