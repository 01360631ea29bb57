#pragma once
/// \file testbench.hpp
/// \brief Testbench description: open-loop input waveforms, registered loopback
/// connections (e.g. XGMII TX -> RX in the paper's 10GE MAC bench), the
/// packet-interface monitor specification and the fault-injection window,
/// plus the content key of a (netlist, testbench) pair.
///
/// ## Content keys
///
/// Engines, registry entries and campaign partials are keyed by the
/// *content* of a design-plus-workload pair, not by object: two structurally
/// identical netlists driven by the same stimulus — even one re-imported
/// from a Verilog dump, whose NetIds differ — get the same key. The key is a
/// 128-bit FNV-1a hash (netlist/content_key.hpp) over two length-prefixed
/// canonical sections:
///
///   1. the netlist rendered by netlist::to_verilog(), which is
///      deterministic and byte-stable (the round-trip contract of the
///      Verilog writer), and
///   2. a canonical testbench dump (canonical_testbench()) that refers to
///      nets by *name*, so it is invariant under NetId remapping — a
///      testbench rebound with retarget_testbench() hashes identically.
///
/// The FNV state after the first section is itself a key: the netlist key
/// (ContentKeys::netlist) under which the service registry shares one
/// netlist copy among every testbench on a design. It is
/// Netlist::content_key(), memoized on the finalized netlist (and shared by
/// its copies), so only the first key of a netlist object renders it; every
/// later content_keys() call folds just the testbench section on top.

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/content_key.hpp"
#include "netlist/netlist.hpp"

namespace ffr::sim {

/// Precomputed input waveforms. waves[i][c] is the value of the i-th primary
/// input (in netlist PI order) at cycle c.
class Stimulus {
 public:
  Stimulus(std::size_t num_inputs, std::size_t num_cycles)
      : num_cycles_(num_cycles),
        waves_(num_inputs, std::vector<std::uint8_t>(num_cycles, 0)) {}

  void set(std::size_t pi_index, std::size_t cycle, bool value) {
    waves_.at(pi_index).at(cycle) = value ? 1 : 0;
  }
  [[nodiscard]] bool get(std::size_t pi_index, std::size_t cycle) const {
    return waves_.at(pi_index).at(cycle) != 0;
  }
  [[nodiscard]] std::size_t num_cycles() const noexcept { return num_cycles_; }
  [[nodiscard]] std::size_t num_inputs() const noexcept { return waves_.size(); }

 private:
  std::size_t num_cycles_;
  std::vector<std::vector<std::uint8_t>> waves_;
};

/// A registered (one-cycle-delay) connection from an output net back into a
/// primary input, with an idle value driven on the first cycle.
struct Loopback {
  netlist::NetId from_net = netlist::kNoNet;
  netlist::NetId to_input = netlist::kNoNet;
  bool initial = false;
};

/// Nets of the user-side packet read interface to monitor. A byte is part of
/// a frame when `valid` is high; `sop` opens a frame; an entry with `eop`
/// closes it (eop entries carry no payload byte, matching the MAC's RX FIFO
/// end-marker convention); `err` on the eop entry flags a bad frame.
struct PacketMonitorSpec {
  netlist::NetId valid = netlist::kNoNet;
  netlist::NetId sop = netlist::kNoNet;
  netlist::NetId eop = netlist::kNoNet;
  netlist::NetId err = netlist::kNoNet;
  std::vector<netlist::NetId> data;  // 1 to 8 nets, LSB first
};

struct Testbench {
  Stimulus stimulus{0, 0};
  std::vector<Loopback> loopbacks;
  PacketMonitorSpec monitor;
  /// Fault injections are drawn uniformly from [inject_begin, inject_end).
  std::size_t inject_begin = 0;
  std::size_t inject_end = 0;
};

/// Checks that `tb` can drive `nl`: one stimulus waveform per primary input,
/// every loopback and packet-monitor net bound to a net of `nl`, and 1 to 8
/// monitored data nets (the golden interface tape carries one byte). Every
/// simulation entry point (CompiledStimulus, run_testbench) calls it.
/// \throws std::invalid_argument naming the offending role, e.g.
///         "monitor err".
void validate_testbench(const netlist::Netlist& nl, const Testbench& tb);

/// The part of a netlist that can influence the monitored packet interface
/// under a testbench: the backward closure of the monitored nets through
/// cell inputs, flip-flop D pins and loopbacks (a loopback whose target
/// input is in the cone brings its source net in). Nothing outside the cone
/// can ever change a monitored net, so an upset of a flip-flop outside it is
/// a functional failure in no run (un-ACE at flip-flop grain; Mukherjee et
/// al., MICRO 2003), and a fault pass need not simulate logic outside it.
struct ObservableCone {
  /// Per NetId: 1 when the net is in the cone.
  std::vector<std::uint8_t> nets;
  /// Per position in Netlist::flip_flops(): 1 when the flip-flop's Q net is
  /// in the cone.
  std::vector<std::uint8_t> flip_flops;
  /// Per Testbench::loopbacks entry: 1 when its target input is in the cone.
  std::vector<std::uint8_t> loopbacks;

  /// Number of flip-flops in the cone.
  [[nodiscard]] std::size_t num_observable_ffs() const noexcept;
};

/// The observable cone of `tb`'s monitor in `nl` (see ObservableCone).
/// Linear in the size of the netlist. Precondition: validate_testbench(nl,
/// tb) passes.
[[nodiscard]] ObservableCone observable_cone(const netlist::Netlist& nl,
                                             const Testbench& tb);

/// One received frame as seen at the packet interface.
struct Frame {
  std::vector<std::uint8_t> bytes;
  bool err = false;
  std::size_t end_cycle = 0;

  [[nodiscard]] bool operator==(const Frame& other) const {
    // end_cycle intentionally ignored: a time-shifted but intact frame is
    // functionally benign (Temporal De-Rating at the application level).
    return err == other.err && bytes == other.bytes;
  }
};

using FrameList = std::vector<Frame>;

/// Rebinds a testbench written against `from` onto `to`, a netlist with the
/// same interface (e.g. one re-imported from a Verilog dump, whose net ids
/// differ even though every name survives): loopback and packet-monitor
/// NetIds are resolved by net name in `to`, and the stimulus is carried over
/// after checking that both netlists expose the same primary inputs in the
/// same order. This is what makes an imported design a first-class campaign
/// target — the retargeted bench replays bit-identically on `to`.
/// \throws std::invalid_argument when the primary-input interfaces differ or
///         a referenced net has no same-named counterpart in `to`.
[[nodiscard]] Testbench retarget_testbench(const Testbench& tb,
                                           const netlist::Netlist& from,
                                           const netlist::Netlist& to);

/// Canonical text form of a testbench *relative to its netlist*: the
/// injection window, the packed stimulus waveforms, and the loopback /
/// packet-monitor bindings spelled with net names (never NetIds). Two
/// testbenches that drive structurally identical netlists identically
/// produce identical dumps.
/// \throws std::out_of_range when the testbench references a net outside
///         the netlist (a mismatched pair).
[[nodiscard]] std::string canonical_testbench(const netlist::Netlist& nl,
                                              const Testbench& tb);

/// Both content keys of a (netlist, testbench) pair. The hashed stream is
/// the length-prefixed netlist section followed by the length-prefixed
/// testbench section; `netlist` is the FNV state after the first section
/// (Netlist::content_key(), equal for every testbench on one design) and
/// `full` is the state after both (the content_hash() key).
struct ContentKeys {
  netlist::ContentHash netlist;
  netlist::ContentHash full;
};

/// \throws std::invalid_argument when the netlist is not finalized.
[[nodiscard]] ContentKeys content_keys(const netlist::Netlist& nl,
                                       const Testbench& tb);

/// The content key of the pair: content_keys(nl, tb).full. It keys the
/// service's engine registry and every campaign partial
/// (fault::CampaignEngine::content_hash()).
/// \throws std::invalid_argument when the netlist is not finalized.
[[nodiscard]] netlist::ContentHash content_hash(const netlist::Netlist& nl,
                                                const Testbench& tb);

}  // namespace ffr::sim
