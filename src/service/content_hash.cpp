#include "service/content_hash.hpp"

namespace ffr::service {

namespace {

/// Appends "name" for a bound net, "-" for kNoNet (e.g. an unused monitor
/// error line), keeping the dump unambiguous via a trailing newline.
void append_net_ref(std::string& out, const netlist::Netlist& nl,
                    netlist::NetId id) {
  out += ' ';
  if (id == netlist::kNoNet) {
    out += '-';
  } else {
    out += nl.net(id).name;
  }
}

}  // namespace

std::string canonical_testbench(const netlist::Netlist& nl,
                                const sim::Testbench& tb) {
  std::string out = "ffr-testbench 1\n";
  out += "inject " + std::to_string(tb.inject_begin) + " " +
         std::to_string(tb.inject_end) + "\n";

  const sim::Stimulus& stimulus = tb.stimulus;
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

  for (const sim::Loopback& loop : tb.loopbacks) {
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

ContentKeys content_keys(const netlist::Netlist& nl, const sim::Testbench& tb) {
  ContentKeys keys;
  keys.netlist = nl.content_key();
  keys.full = netlist::fold_section(keys.netlist, "testbench",
                                    canonical_testbench(nl, tb));
  return keys;
}

ContentHash content_hash(const netlist::Netlist& nl, const sim::Testbench& tb) {
  return content_keys(nl, tb).full;
}

}  // namespace ffr::service
