#pragma once
/// \file token_reader.hpp
/// \brief The whitespace-token text format of every saved file (model and
/// transfer-model files, campaign partials) and its one strict reader.
///
/// ## Token rules
///
/// - A file is a sequence of tokens separated by whitespace. It opens with
///   `<magic> <version>`; each format then lays out its own fields
///   (ml/serialize.hpp, core/transfer_flow.hpp, fault/shard.hpp).
/// - Counts are unsigned decimal integers, each read against an upper bound
///   (2^64 - 1 unless the format names a smaller one).
/// - Doubles are written with 17 significant digits (`%.17g`, write_double),
///   which round-trips IEEE-754 binary64 exactly; `inf` and `nan` read back.
/// - Byte strings are length-prefixed, `<length> <bytes>`, with exactly one
///   separator, so they may hold whitespace.
/// - Every block closes with the sentinel token `end`, so a truncated file
///   is always detected.
/// - Every failure throws `std::runtime_error` positioned as
///   `<source>: <what> (at byte N)` (or `(at end of stream)` when the stream
///   cannot report an offset).

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>

namespace ffr::util {

/// Writes `value` with 17 significant digits (exact binary64 round-trip).
void write_double(std::ostream& os, double value);

/// Strict positioned reader over one stream of the token format above.
class TokenReader {
 public:
  /// `source` names the stream in every error message (a path, or the
  /// loader's name for an anonymous stream).
  TokenReader(std::istream& is, std::string source);

  /// \throws std::runtime_error `<source>: <what> (at byte N)`.
  [[noreturn]] void fail(const std::string& what) const;

  /// Reads one token. \throws std::runtime_error at the end of the stream.
  [[nodiscard]] std::string token() const;

  /// Reads a token and requires it to equal `expected`.
  void expect(std::string_view expected) const;

  /// Reads `<magic> <version>` and requires both to match.
  void expect_header(std::string_view magic, std::uint64_t version) const;

  /// Reads an unsigned decimal integer; rejects values above `max` and
  /// values that do not fit in 64 bits.
  [[nodiscard]] std::uint64_t u64(
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;

  /// Reads a double (decimal, inf and nan accepted).
  [[nodiscard]] double dbl() const;

  /// Reads a length-prefixed byte string of at most `max_len` bytes.
  [[nodiscard]] std::string bytes(
      std::uint64_t max_len = std::uint64_t{1} << 20) const;

 private:
  std::istream& is_;
  std::string source_;
};

}  // namespace ffr::util
