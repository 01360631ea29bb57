#pragma once
/// \file content_hash.hpp
/// \brief Content-addressed keys for (netlist, testbench) pairs.
///
/// The service layer caches one fault::CampaignEngine per *content* of a
/// design-plus-workload pair, not per object: two structurally identical
/// netlists driven by the same stimulus — even one re-imported from a
/// Verilog dump, whose NetIds differ — must land on the same cache entry.
/// The key is a 128-bit FNV-1a hash (netlist/content_key.hpp) over two
/// length-prefixed canonical sections:
///
///   1. the netlist rendered by netlist::to_verilog(), which is
///      deterministic and byte-stable (the round-trip contract of the
///      Verilog writer), and
///   2. a canonical testbench dump (canonical_testbench()) that refers to
///      nets by *name*, so it is invariant under NetId remapping — a
///      testbench rebound with sim::retarget_testbench hashes identically.
///
/// The FNV state after the first section is itself a key: the netlist key
/// (ContentKeys::netlist) under which the registry shares one netlist copy
/// among every testbench on a design. It lives in the netlist layer as
/// Netlist::content_key(), memoized on the finalized netlist (and shared by
/// its copies), so only the first key of a netlist object renders it; every
/// later content_keys() call folds just the testbench section on top.

#include <string>

#include "netlist/content_key.hpp"
#include "netlist/netlist.hpp"
#include "sim/testbench.hpp"

namespace ffr::service {

/// A 128-bit content hash (defined by the netlist layer, which keys
/// netlists with it).
using ContentHash = netlist::ContentHash;

/// Canonical text form of a testbench *relative to its netlist*: the
/// injection window, the packed stimulus waveforms, and the loopback /
/// packet-monitor bindings spelled with net names (never NetIds). Two
/// testbenches that drive structurally identical netlists identically
/// produce identical dumps.
/// \throws std::out_of_range when the testbench references a net outside
///         the netlist (a mismatched pair).
[[nodiscard]] std::string canonical_testbench(const netlist::Netlist& nl,
                                              const sim::Testbench& tb);

/// Both registry keys of a (netlist, testbench) pair. The hashed stream is
/// the length-prefixed netlist section followed by the length-prefixed
/// testbench section; `netlist` is the FNV state after the first section
/// (Netlist::content_key(), equal for every testbench on one design, the
/// key the registry shares netlist copies under) and `full` is the state
/// after both (the content_hash() cache key).
struct ContentKeys {
  ContentHash netlist;
  ContentHash full;
};

/// \throws std::invalid_argument when the netlist is not finalized.
[[nodiscard]] ContentKeys content_keys(const netlist::Netlist& nl,
                                       const sim::Testbench& tb);

/// The service cache key: content_keys(nl, tb).full.
/// \throws std::invalid_argument when the netlist is not finalized.
[[nodiscard]] ContentHash content_hash(const netlist::Netlist& nl,
                                       const sim::Testbench& tb);

}  // namespace ffr::service
