#pragma once
/// \file content_key.hpp
/// \brief 128-bit FNV-1a content keys over canonical byte streams.
///
/// A key is two independent 64-bit FNV-1a lanes folded over a sequence of
/// length-prefixed sections ("<tag> <length>\n<text>"). The netlist key —
/// the state after the "netlist" section holding netlist::to_verilog() — is
/// defined here, next to the writer whose byte-stable output it hashes, and
/// memoized per finalized netlist by Netlist::content_key(). Callers that
/// key a netlist together with more content (sim::content_keys adds the
/// testbench section) continue the fold from it with fold_section().
///
/// 128 bits of FNV-1a is not cryptographic; it keys trusted in-process
/// caches and partial files, where an accidental collision is the only
/// concern (probability ~n^2 / 2^128 for n keyed designs — negligible).

#include <cstdint>
#include <string>
#include <string_view>

namespace ffr::netlist {

class Netlist;

/// A 128-bit content hash, comparable and renderable as 32 hex digits.
struct ContentHash {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  [[nodiscard]] bool operator==(const ContentHash&) const = default;
  /// Lexicographic (hi, lo) order so hashes can key ordered containers.
  [[nodiscard]] bool operator<(const ContentHash& other) const noexcept {
    return hi != other.hi ? hi < other.hi : lo < other.lo;
  }

  /// 32 lowercase hex digits, hi word first.
  [[nodiscard]] std::string hex() const;
};

/// The state before any section: the FNV-1a offset basis in `lo`, and the
/// basis xor-perturbed in `hi` so the two lanes never agree by construction.
[[nodiscard]] ContentHash content_hash_basis() noexcept;

/// Folds the section "<tag> <text.size()>\n<text>" into both lanes.
[[nodiscard]] ContentHash fold_section(ContentHash state, std::string_view tag,
                                       std::string_view text);

/// The netlist key without memoization: fold_section(content_hash_basis(),
/// "netlist", to_verilog(nl)). Renders the whole netlist on every call;
/// use Netlist::content_key(), which renders once per finalized netlist.
/// \throws whatever to_verilog throws on an unrenderable name.
[[nodiscard]] ContentHash render_content_key(const Netlist& nl);

}  // namespace ffr::netlist
