#include "sim/testbench.hpp"

#include <stdexcept>

namespace ffr::sim {

namespace {

netlist::NetId map_net(const netlist::Netlist& from, const netlist::Netlist& to,
                       netlist::NetId net, const char* role) {
  if (net == netlist::kNoNet) return netlist::kNoNet;
  if (net >= from.num_nets()) {
    throw std::invalid_argument(std::string("retarget_testbench: ") + role +
                                " net id out of range in the source netlist");
  }
  const std::string& name = from.net(net).name;
  const auto mapped = to.find_net(name);
  if (!mapped.has_value()) {
    throw std::invalid_argument(std::string("retarget_testbench: ") + role +
                                " net '" + name + "' has no counterpart in '" +
                                to.name() + "'");
  }
  return *mapped;
}

/// Appends "name" for a bound net and "-" for kNoNet, so a testbench that
/// validate_testbench() rejects still has a dump; the trailing newline keeps
/// it unambiguous.
void append_net_ref(std::string& out, const netlist::Netlist& nl,
                    netlist::NetId id) {
  out += ' ';
  if (id == netlist::kNoNet) {
    out += '-';
  } else {
    out += nl.net(id).name;
  }
}

/// \throws std::invalid_argument when `net` is unset or outside `nl`.
void check_net(const netlist::Netlist& nl, netlist::NetId net, const char* role) {
  if (net == netlist::kNoNet) {
    throw std::invalid_argument(std::string("validate_testbench: ") + role +
                                " net is unset");
  }
  if (net >= nl.num_nets()) {
    throw std::invalid_argument(std::string("validate_testbench: ") + role +
                                " net id " + std::to_string(net) +
                                " is outside netlist '" + nl.name() + "'");
  }
}

}  // namespace

void validate_testbench(const netlist::Netlist& nl, const Testbench& tb) {
  if (tb.stimulus.num_inputs() != nl.primary_inputs().size()) {
    throw std::invalid_argument("validate_testbench: stimulus/PI count mismatch");
  }
  for (const Loopback& loop : tb.loopbacks) {
    check_net(nl, loop.from_net, "loopback source");
    check_net(nl, loop.to_input, "loopback target");
  }
  const PacketMonitorSpec& monitor = tb.monitor;
  check_net(nl, monitor.valid, "monitor valid");
  check_net(nl, monitor.sop, "monitor sop");
  check_net(nl, monitor.eop, "monitor eop");
  check_net(nl, monitor.err, "monitor err");
  if (monitor.data.empty() || monitor.data.size() > 8) {
    throw std::invalid_argument(
        "validate_testbench: monitor data needs 1 to 8 nets, got " +
        std::to_string(monitor.data.size()));
  }
  for (const netlist::NetId data : monitor.data) {
    check_net(nl, data, "monitor data");
  }
}

std::size_t ObservableCone::num_observable_ffs() const noexcept {
  std::size_t count = 0;
  for (const std::uint8_t in_cone : flip_flops) count += in_cone;
  return count;
}

ObservableCone observable_cone(const netlist::Netlist& nl, const Testbench& tb) {
  ObservableCone cone;
  cone.nets.assign(nl.num_nets(), 0);
  std::vector<netlist::NetId> work;
  const auto add = [&](netlist::NetId net) {
    if (cone.nets[net] == 0) {
      cone.nets[net] = 1;
      work.push_back(net);
    }
  };
  const PacketMonitorSpec& monitor = tb.monitor;
  add(monitor.valid);
  add(monitor.sop);
  add(monitor.eop);
  add(monitor.err);
  for (const netlist::NetId net : monitor.data) add(net);
  // A net is in the cone when it drives one that is: through a cell's
  // inputs (a flip-flop's only input is its D pin), and through every
  // loopback that feeds a primary input in the cone.
  while (!work.empty()) {
    const netlist::NetId net = work.back();
    work.pop_back();
    const netlist::CellId driver = nl.net(net).driver;
    if (driver != netlist::kNoCell) {
      for (const netlist::NetId in : nl.cell(driver).inputs) add(in);
      continue;
    }
    for (const Loopback& loop : tb.loopbacks) {
      if (loop.to_input == net) add(loop.from_net);
    }
  }
  const auto ffs = nl.flip_flops();
  cone.flip_flops.resize(ffs.size());
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    cone.flip_flops[i] = cone.nets[nl.cell(ffs[i]).output];
  }
  cone.loopbacks.resize(tb.loopbacks.size());
  for (std::size_t i = 0; i < tb.loopbacks.size(); ++i) {
    cone.loopbacks[i] = cone.nets[tb.loopbacks[i].to_input];
  }
  return cone;
}

Testbench retarget_testbench(const Testbench& tb, const netlist::Netlist& from,
                             const netlist::Netlist& to) {
  const auto from_pis = from.primary_inputs();
  const auto to_pis = to.primary_inputs();
  if (from_pis.size() != to_pis.size()) {
    throw std::invalid_argument(
        "retarget_testbench: primary input counts differ (" +
        std::to_string(from_pis.size()) + " vs " + std::to_string(to_pis.size()) +
        ")");
  }
  for (std::size_t i = 0; i < from_pis.size(); ++i) {
    if (from.net(from_pis[i]).name != to.net(to_pis[i]).name) {
      throw std::invalid_argument(
          "retarget_testbench: primary input " + std::to_string(i) + " is '" +
          from.net(from_pis[i]).name + "' in '" + from.name() + "' but '" +
          to.net(to_pis[i]).name + "' in '" + to.name() + "'");
    }
  }

  Testbench out = tb;  // stimulus is PI-position indexed, so it carries over
  for (Loopback& loop : out.loopbacks) {
    loop.from_net = map_net(from, to, loop.from_net, "loopback source");
    loop.to_input = map_net(from, to, loop.to_input, "loopback target");
    if (to.net(loop.to_input).pi_index < 0) {
      throw std::invalid_argument("retarget_testbench: loopback target '" +
                                  to.net(loop.to_input).name +
                                  "' is not a primary input of '" + to.name() +
                                  "'");
    }
  }
  out.monitor.valid = map_net(from, to, tb.monitor.valid, "monitor valid");
  out.monitor.sop = map_net(from, to, tb.monitor.sop, "monitor sop");
  out.monitor.eop = map_net(from, to, tb.monitor.eop, "monitor eop");
  out.monitor.err = map_net(from, to, tb.monitor.err, "monitor err");
  for (netlist::NetId& data : out.monitor.data) {
    data = map_net(from, to, data, "monitor data");
  }
  return out;
}

std::string canonical_testbench(const netlist::Netlist& nl,
                                const Testbench& tb) {
  std::string out = "ffr-testbench 1\n";
  out += "inject " + std::to_string(tb.inject_begin) + " " +
         std::to_string(tb.inject_end) + "\n";

  const Stimulus& stimulus = tb.stimulus;
  out += "stimulus " + std::to_string(stimulus.num_inputs()) + " " +
         std::to_string(stimulus.num_cycles()) + "\n";
  // One row per primary input, waveform bits packed 4-per-hex-digit. Rows
  // are in netlist PI order (the order the stimulus is defined over).
  for (std::size_t pi = 0; pi < stimulus.num_inputs(); ++pi) {
    unsigned nibble = 0;
    for (std::size_t cycle = 0; cycle < stimulus.num_cycles(); ++cycle) {
      nibble = (nibble << 1) | (stimulus.get(pi, cycle) ? 1u : 0u);
      if (cycle % 4 == 3 || cycle + 1 == stimulus.num_cycles()) {
        out += "0123456789abcdef"[nibble & 0xF];
        nibble = 0;
      }
    }
    out += '\n';
  }

  for (const Loopback& loop : tb.loopbacks) {
    out += "loopback";
    append_net_ref(out, nl, loop.from_net);
    append_net_ref(out, nl, loop.to_input);
    out += loop.initial ? " 1\n" : " 0\n";
  }

  out += "monitor";
  append_net_ref(out, nl, tb.monitor.valid);
  append_net_ref(out, nl, tb.monitor.sop);
  append_net_ref(out, nl, tb.monitor.eop);
  append_net_ref(out, nl, tb.monitor.err);
  for (const netlist::NetId data : tb.monitor.data) {
    append_net_ref(out, nl, data);
  }
  out += '\n';
  return out;
}

ContentKeys content_keys(const netlist::Netlist& nl, const Testbench& tb) {
  ContentKeys keys;
  keys.netlist = nl.content_key();
  keys.full = netlist::fold_section(keys.netlist, "testbench",
                                    canonical_testbench(nl, tb));
  return keys;
}

netlist::ContentHash content_hash(const netlist::Netlist& nl,
                                  const Testbench& tb) {
  return content_keys(nl, tb).full;
}

}  // namespace ffr::sim
