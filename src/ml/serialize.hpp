#pragma once
/// \file serialize.hpp
/// \brief Model persistence: a versioned text format shared by every model in
/// the zoo, so a model trained once can be saved, shipped, and reloaded to
/// serve predictions on circuits it has never seen (see core/transfer_flow.hpp).
///
/// ## Format
///
/// A model file follows the token rules of util/token_reader.hpp. It opens
/// with a header
///
///     ffr-model <version> <tag>
///
/// where `<version>` is currently 1 and `<tag>` names the concrete class
/// (`linear_least_squares`, `ridge`, `knn`, `svr`, `decision_tree`,
/// `random_forest`, `gradient_boosting`, `scaled_pipeline`). The body is a
/// sequence of `key value...` fields specific to the tag, closed by `end`.
/// Ensemble and pipeline models nest complete sub-model blocks (header
/// included), so `load_model()` needs no out-of-band type information; a
/// `scaled_pipeline` may nest at most kMaxPipelineDepth levels deep.
///
/// Loading is strict: a bad magic token, an unsupported version, an unknown
/// tag, a malformed number, an out-of-range count, enum or hyperparameter,
/// or a truncated stream all raise a positioned `std::runtime_error`.

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <memory>

#include "ml/model.hpp"
#include "util/token_reader.hpp"

namespace ffr::ml {

/// Current (and only) version of the model text format.
inline constexpr int kModelFormatVersion = 1;

/// How many `scaled_pipeline` blocks may enclose one another. The zoo
/// writes one; the bound keeps a crafted file from exhausting the stack.
inline constexpr std::size_t kMaxPipelineDepth = 8;

/// Reads one model block (header + body) from `is` and reconstructs the
/// concrete model, fitted state included. The stream may hold further data
/// after the block (ensembles rely on this).
/// \throws std::runtime_error positioned as `load_model: <what> (at byte N)`
///         on bad magic/version/tag or a corrupt body.
[[nodiscard]] std::unique_ptr<Regressor> load_model(std::istream& is);

/// Reads one model block from `reader`, for files that embed a model
/// (core/transfer_flow.hpp). Errors carry the reader's source and offset.
[[nodiscard]] std::unique_ptr<Regressor> load_model(
    const util::TokenReader& reader);

/// Writes `model.save()` into a new file at `path`.
/// \throws std::logic_error when the model is not fitted;
///         std::runtime_error when the file cannot be opened.
void save_model_file(const std::filesystem::path& path, const Regressor& model);

/// Convenience: load_model() from the file at `path`.
/// \throws std::runtime_error when the file cannot be opened or is corrupt.
[[nodiscard]] std::unique_ptr<Regressor> load_model_file(
    const std::filesystem::path& path);

/// Field I/O shared by the per-model save()/load bodies and by
/// core/transfer_flow.cpp, on top of util::TokenReader.
namespace io {

/// Upper bound of every element count in a model file.
inline constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 32;

/// Writes `key` followed by the vector size and its elements.
void write_vector(std::ostream& os, std::string_view key,
                  const linalg::Vector& values);

/// Writes `key`, the dimensions, and the row-major elements.
void write_matrix(std::ostream& os, std::string_view key,
                  const linalg::Matrix& matrix);

/// Reads the `key <n> <values...>` block written by write_vector().
[[nodiscard]] linalg::Vector read_vector(const util::TokenReader& r,
                                         std::string_view key);

/// Reads the `key <rows> <cols> <values...>` block written by write_matrix().
[[nodiscard]] linalg::Matrix read_matrix(const util::TokenReader& r,
                                         std::string_view key);

/// Writes the `ffr-model <version> <tag>` header.
void write_header(std::ostream& os, std::string_view tag);

}  // namespace io

}  // namespace ffr::ml
