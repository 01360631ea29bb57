#include "netlist/netlist.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <stdexcept>

namespace ffr::netlist {

NetId Netlist::add_net(std::string name) {
  const NetId id = static_cast<NetId>(nets_.size());
  Net net;
  net.name = std::move(name);
  auto [it, inserted] = net_by_name_.emplace(net.name, id);
  if (!inserted) {
    throw std::runtime_error("Netlist: duplicate net name '" + net.name + "'");
  }
  nets_.push_back(std::move(net));
  invalidate();
  return id;
}

CellId Netlist::add_cell(Cell cell) {
  if (cell.inputs.size() != num_inputs(cell.func)) {
    throw std::runtime_error("Netlist: cell '" + cell.name + "' has " +
                             std::to_string(cell.inputs.size()) + " inputs, " +
                             std::string(to_string(cell.func)) + " needs " +
                             std::to_string(num_inputs(cell.func)));
  }
  if (cell.output == kNoNet || cell.output >= nets_.size()) {
    throw std::runtime_error("Netlist: cell '" + cell.name + "' has no output net");
  }
  for (const NetId in : cell.inputs) {
    if (in >= nets_.size()) {
      throw std::runtime_error("Netlist: cell '" + cell.name +
                               "' references missing input net");
    }
  }
  const CellId id = static_cast<CellId>(cells_.size());
  Net& out = nets_[cell.output];
  if (out.driver != kNoCell || out.pi_index >= 0) {
    throw std::runtime_error("Netlist: net '" + out.name + "' has multiple drivers");
  }
  out.driver = id;
  auto [it, inserted] = cell_by_name_.emplace(cell.name, id);
  if (!inserted) {
    throw std::runtime_error("Netlist: duplicate cell name '" + cell.name + "'");
  }
  cells_.push_back(std::move(cell));
  invalidate();
  return id;
}

NetId Netlist::add_primary_input(std::string name) {
  const NetId id = add_net(std::move(name));
  nets_[id].pi_index = static_cast<std::int32_t>(primary_inputs_.size());
  primary_inputs_.push_back(id);
  return id;
}

void Netlist::mark_primary_output(NetId net, std::string port_name) {
  if (net >= nets_.size()) throw std::runtime_error("mark_primary_output: bad net");
  primary_outputs_.push_back(net);
  primary_output_names_.push_back(std::move(port_name));
  invalidate();
}

void Netlist::add_register_bus(RegisterBus bus) {
  for (const CellId ff : bus.flip_flops) {
    if (ff >= cells_.size() || !is_sequential(cells_[ff].func)) {
      throw std::runtime_error("add_register_bus: '" + bus.name +
                               "' references a non-flip-flop cell");
    }
  }
  buses_.push_back(std::move(bus));
  invalidate();
}

void Netlist::finalize() {
  invalidate();
  // Rebuild reader lists.
  for (Net& net : nets_) net.readers.clear();
  for (CellId id = 0; id < cells_.size(); ++id) {
    for (const NetId in : cells_[id].inputs) nets_[in].readers.push_back(id);
  }
  // Flip-flop index.
  flip_flops_.clear();
  for (CellId id = 0; id < cells_.size(); ++id) {
    if (is_sequential(cells_[id].func)) flip_flops_.push_back(id);
  }
  // Bus membership map.
  ff_bus_.clear();
  for (std::size_t b = 0; b < buses_.size(); ++b) {
    for (std::size_t pos = 0; pos < buses_[b].flip_flops.size(); ++pos) {
      ff_bus_[buses_[b].flip_flops[pos]] = {b, pos};
    }
  }
  check_invariants();
  compute_topo_order();
  key_memo_ = std::make_shared<KeyMemo>();
  finalized_ = true;
}

ContentHash Netlist::content_key() const {
  if (!finalized_) {
    throw std::invalid_argument("Netlist::content_key: netlist is not finalized");
  }
  if (key_memo_ == nullptr) return render_content_key(*this);  // moved-from
  KeyMemo& memo = *key_memo_;
  // The exception is memoized too: an exception escaping std::call_once
  // leaves the flag unusable on some standard libraries.
  std::call_once(memo.once, [&] {
    try {
      memo.key = render_content_key(*this);
    } catch (...) {
      memo.error = std::current_exception();
    }
  });
  if (memo.error != nullptr) std::rethrow_exception(memo.error);
  return memo.key;
}

void Netlist::check_invariants() const {
  for (NetId id = 0; id < nets_.size(); ++id) {
    const Net& net = nets_[id];
    if (net.driver == kNoCell && net.pi_index < 0) {
      throw std::runtime_error("Netlist: net '" + net.name + "' is undriven");
    }
  }
}

void Netlist::compute_topo_order() {
  // Kahn's algorithm over combinational cells only. DFF outputs and primary
  // inputs are sources; a DFF's D input is a sink (no edge out of the DFF
  // through the clock boundary), so sequential loops are legal.
  topo_order_.clear();
  std::vector<std::uint32_t> pending(cells_.size(), 0);
  std::vector<CellId> ready;
  for (CellId id = 0; id < cells_.size(); ++id) {
    const Cell& cell = cells_[id];
    if (is_sequential(cell.func)) continue;
    std::uint32_t comb_inputs = 0;
    for (const NetId in : cell.inputs) {
      const Net& net = nets_[in];
      if (net.driver != kNoCell && !is_sequential(cells_[net.driver].func)) {
        ++comb_inputs;
      }
    }
    pending[id] = comb_inputs;
    if (comb_inputs == 0) ready.push_back(id);
  }
  std::size_t num_comb = 0;
  for (const Cell& cell : cells_) {
    if (!is_sequential(cell.func)) ++num_comb;
  }
  topo_order_.reserve(num_comb);
  while (!ready.empty()) {
    const CellId id = ready.back();
    ready.pop_back();
    topo_order_.push_back(id);
    for (const CellId reader : nets_[cells_[id].output].readers) {
      if (is_sequential(cells_[reader].func)) continue;
      if (--pending[reader] == 0) ready.push_back(reader);
    }
  }
  if (topo_order_.size() != num_comb) {
    throw std::runtime_error(
        "Netlist: combinational cycle detected (" + std::to_string(num_comb) +
        " combinational cells, only " + std::to_string(topo_order_.size()) +
        " orderable)");
  }
}

std::optional<std::pair<std::size_t, std::size_t>> Netlist::bus_of(CellId ff) const {
  const auto it = ff_bus_.find(ff);
  if (it == ff_bus_.end()) return std::nullopt;
  return it->second;
}

std::optional<CellId> Netlist::find_cell(std::string_view name) const {
  const auto it = cell_by_name_.find(std::string(name));
  if (it == cell_by_name_.end()) return std::nullopt;
  return it->second;
}

std::optional<NetId> Netlist::find_net(std::string_view name) const {
  const auto it = net_by_name_.find(std::string(name));
  if (it == net_by_name_.end()) return std::nullopt;
  return it->second;
}

double Netlist::total_area_um2() const {
  const CellLibrary& lib = default_library();
  double area = 0.0;
  for (const Cell& cell : cells_) area += lib.lookup(cell.func, cell.drive).area_um2;
  return area;
}

std::string Netlist::summary() const {
  std::size_t num_comb = 0;
  std::size_t num_const = 0;
  for (const Cell& cell : cells_) {
    if (is_sequential(cell.func)) continue;
    if (is_constant(cell.func)) {
      ++num_const;
    } else {
      ++num_comb;
    }
  }
  std::ostringstream out;
  out << name_ << ": " << cells_.size() << " cells (" << flip_flops_.size()
      << " FFs, " << num_comb << " comb, " << num_const << " const), "
      << nets_.size() << " nets, " << primary_inputs_.size() << " PIs, "
      << primary_outputs_.size() << " POs, " << buses_.size() << " buses";
  return out.str();
}

namespace {

bool mismatch_at(std::string* out, const std::string& what) {
  if (out != nullptr) *out = what;
  return false;
}

}  // namespace

bool structurally_equal(const Netlist& a, const Netlist& b, std::string* mismatch) {
  if (a.name() != b.name()) {
    return mismatch_at(mismatch, "module name: '" + a.name() + "' vs '" +
                                     b.name() + "'");
  }
  if (a.num_nets() != b.num_nets()) {
    return mismatch_at(mismatch, "net count: " + std::to_string(a.num_nets()) +
                                     " vs " + std::to_string(b.num_nets()));
  }
  for (NetId id = 0; id < a.num_nets(); ++id) {
    const Net& na = a.net(id);
    const Net& nb = b.net(id);
    if (na.name != nb.name || na.pi_index != nb.pi_index) {
      return mismatch_at(mismatch, "net " + std::to_string(id) + ": '" + na.name +
                                       "' (pi " + std::to_string(na.pi_index) +
                                       ") vs '" + nb.name + "' (pi " +
                                       std::to_string(nb.pi_index) + ")");
    }
  }
  if (a.num_cells() != b.num_cells()) {
    return mismatch_at(mismatch, "cell count: " + std::to_string(a.num_cells()) +
                                     " vs " + std::to_string(b.num_cells()));
  }
  for (CellId id = 0; id < a.num_cells(); ++id) {
    const Cell& ca = a.cell(id);
    const Cell& cb = b.cell(id);
    const char* field = nullptr;
    if (ca.name != cb.name) field = "name";
    else if (ca.func != cb.func) field = "func";
    else if (ca.drive != cb.drive) field = "drive";
    else if (ca.init_value != cb.init_value) field = "init_value";
    else if (ca.inputs != cb.inputs) field = "inputs";
    else if (ca.output != cb.output) field = "output";
    if (field != nullptr) {
      return mismatch_at(mismatch, "cell " + std::to_string(id) + " ('" + ca.name +
                                       "' vs '" + cb.name + "'): " + field +
                                       " differs");
    }
  }
  if (a.primary_output_names() != b.primary_output_names()) {
    return mismatch_at(mismatch, "primary output names differ");
  }
  if (!std::equal(a.primary_outputs().begin(), a.primary_outputs().end(),
                  b.primary_outputs().begin(), b.primary_outputs().end())) {
    return mismatch_at(mismatch, "primary output nets differ");
  }
  if (a.register_buses().size() != b.register_buses().size()) {
    return mismatch_at(mismatch,
                       "bus count: " + std::to_string(a.register_buses().size()) +
                           " vs " + std::to_string(b.register_buses().size()));
  }
  for (std::size_t i = 0; i < a.register_buses().size(); ++i) {
    const RegisterBus& ba = a.register_buses()[i];
    const RegisterBus& bb = b.register_buses()[i];
    if (ba.name != bb.name || ba.flip_flops != bb.flip_flops) {
      return mismatch_at(mismatch, "bus " + std::to_string(i) + " ('" + ba.name +
                                       "' vs '" + bb.name + "') differs");
    }
  }
  return true;
}

}  // namespace ffr::netlist
