#pragma once
/// \file serialize.hpp
/// \brief Model persistence: a versioned text format shared by every model in
/// the zoo, so a model trained once can be saved, shipped, and reloaded to
/// serve predictions on circuits it has never seen (see core/transfer_flow.hpp).
///
/// ## Format
///
/// A model file is whitespace-separated tokens. It opens with a header
///
///     ffr-model <version> <tag>
///
/// where `<version>` is currently 1 and `<tag>` names the concrete class
/// (`linear_least_squares`, `ridge`, `knn`, `svr`, `decision_tree`,
/// `random_forest`, `gradient_boosting`, `scaled_pipeline`). The body is a
/// sequence of `key value...` fields specific to the tag, and every block
/// closes with the sentinel token `end` so truncation is always detected.
/// Doubles are written with 17 significant digits (`%.17g`), which
/// round-trips IEEE-754 binary64 exactly — a reloaded model predicts
/// bit-identically to the one that was saved. Ensemble and pipeline models
/// nest complete sub-model blocks (header included), so the format is
/// recursive and `load_model()` needs no out-of-band type information.
///
/// Loading is strict: a bad magic token, an unsupported version, an unknown
/// tag, a malformed number, an out-of-range enum, or a truncated stream all
/// raise `std::runtime_error` with a message naming what was expected and
/// what was found.

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <memory>

#include "ml/model.hpp"

namespace ffr::ml {

/// Current (and only) version of the model text format.
inline constexpr int kModelFormatVersion = 1;

/// Writes `model` to `os` in the versioned text format. Equivalent to
/// `model.save(os)`; provided for symmetry with load_model().
/// \throws std::logic_error when the model is not fitted.
void save_model(std::ostream& os, const Regressor& model);

/// Reads one model block (header + body) from `is` and reconstructs the
/// concrete model, fitted state included. The stream may hold further data
/// after the block (ensembles rely on this).
/// \throws std::runtime_error on bad magic/version/tag or a corrupt body.
[[nodiscard]] std::unique_ptr<Regressor> load_model(std::istream& is);

/// Convenience: save_model() into a new file at `path`.
/// \throws std::runtime_error when the file cannot be opened.
void save_model_file(const std::filesystem::path& path, const Regressor& model);

/// Convenience: load_model() from the file at `path`.
/// \throws std::runtime_error when the file cannot be opened or is corrupt.
[[nodiscard]] std::unique_ptr<Regressor> load_model_file(
    const std::filesystem::path& path);

/// Low-level token I/O shared by the per-model save()/load bodies and by
/// core/transfer_flow.cpp. Every reader throws `std::runtime_error` naming
/// the expected and the found token on any mismatch or stream exhaustion.
namespace io {

/// Writes a double with 17 significant digits (exact binary64 round-trip).
void write_double(std::ostream& os, double value);

/// Writes an unsigned integer field.
void write_size(std::ostream& os, std::uint64_t value);

/// Writes `key` followed by the vector size and its elements.
void write_vector(std::ostream& os, std::string_view key,
                  const linalg::Vector& values);

/// Writes `key`, the dimensions, and the row-major elements.
void write_matrix(std::ostream& os, std::string_view key,
                  const linalg::Matrix& matrix);

/// Reads one whitespace-separated token. \throws std::runtime_error at EOF.
[[nodiscard]] std::string read_token(std::istream& is);

/// Reads a token and requires it to equal `expected`.
void expect_token(std::istream& is, std::string_view expected);

/// Reads a double (decimal, inf and nan accepted).
[[nodiscard]] double read_double(std::istream& is);

/// Reads a non-negative integer; rejects values above `max` and values
/// that do not fit in 64 bits.
[[nodiscard]] std::uint64_t read_size(
    std::istream& is, std::uint64_t max = std::uint64_t{1} << 32);

/// Reads the `key <n> <values...>` block written by write_vector().
[[nodiscard]] linalg::Vector read_vector(std::istream& is, std::string_view key);

/// Reads the `key <rows> <cols> <values...>` block written by write_matrix().
[[nodiscard]] linalg::Matrix read_matrix(std::istream& is, std::string_view key);

/// Writes the `ffr-model <version> <tag>` header.
void write_header(std::ostream& os, std::string_view tag);

}  // namespace io

}  // namespace ffr::ml
