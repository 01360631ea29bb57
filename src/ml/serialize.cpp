#include "ml/serialize.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "ml/pipeline.hpp"
#include "ml/svr.hpp"
#include "ml/tree.hpp"

namespace ffr::ml {

namespace io {

void write_vector(std::ostream& os, std::string_view key,
                  const linalg::Vector& values) {
  os << key << ' ' << values.size();
  for (const double v : values) {
    os << ' ';
    util::write_double(os, v);
  }
  os << '\n';
}

void write_matrix(std::ostream& os, std::string_view key,
                  const linalg::Matrix& matrix) {
  os << key << ' ' << matrix.rows() << ' ' << matrix.cols();
  for (const double v : matrix.data()) {
    os << ' ';
    util::write_double(os, v);
  }
  os << '\n';
}

// The readers below grow their storage only as values are read, so a count
// field larger than the stream holds fails at the stream's end instead of
// sizing an allocation first.
linalg::Vector read_vector(const util::TokenReader& r, std::string_view key) {
  r.expect(key);
  const std::uint64_t n = r.u64(kMaxCount);
  linalg::Vector values;
  for (std::uint64_t i = 0; i < n; ++i) values.push_back(r.dbl());
  return values;
}

linalg::Matrix read_matrix(const util::TokenReader& r, std::string_view key) {
  r.expect(key);
  const std::uint64_t rows = r.u64(kMaxCount);
  const std::uint64_t cols = r.u64(kMaxCount);
  if (rows != 0 && cols > kMaxCount / rows) {
    r.fail("matrix " + std::to_string(rows) + "x" + std::to_string(cols) +
           " exceeds the sanity limit");
  }
  linalg::Vector values;
  for (std::uint64_t i = 0; i < rows * cols; ++i) values.push_back(r.dbl());
  linalg::Matrix matrix(static_cast<std::size_t>(rows),
                        static_cast<std::size_t>(cols));
  std::copy(values.begin(), values.end(), matrix.data().begin());
  return matrix;
}

void write_header(std::ostream& os, std::string_view tag) {
  os << "ffr-model " << kModelFormatVersion << ' ' << tag << '\n';
}

}  // namespace io

namespace {

/// Reads one model block; `depth` counts the scaled_pipeline blocks that
/// enclose it.
std::unique_ptr<Regressor> load_block(const util::TokenReader& r,
                                      std::size_t depth) {
  r.expect_header("ffr-model", kModelFormatVersion);
  const std::string tag = r.token();
  // Hyperparameters read from the file reach the model constructors, which
  // reject out-of-range values with std::invalid_argument; a corrupt file
  // is reported like every other, as a positioned runtime_error.
  try {
    if (tag == "linear_least_squares") return LinearLeastSquares::load_body(r);
    if (tag == "ridge") return RidgeRegression::load_body(r);
    if (tag == "knn") return KnnRegressor::load_body(r);
    if (tag == "svr") return SvrRegressor::load_body(r);
    if (tag == "decision_tree") return DecisionTreeRegressor::load_body(r);
    if (tag == "random_forest") return RandomForestRegressor::load_body(r);
    if (tag == "gradient_boosting") {
      return GradientBoostingRegressor::load_body(r);
    }
    if (tag == "scaled_pipeline") {
      if (depth == kMaxPipelineDepth) {
        r.fail("scaled_pipeline nested deeper than " +
               std::to_string(kMaxPipelineDepth) + " levels");
      }
      StandardScaler scaler = StandardScaler::load(r);
      std::unique_ptr<Regressor> inner = load_block(r, depth + 1);
      r.expect("end");
      return std::make_unique<ScaledPipeline>(std::move(scaler),
                                              std::move(inner));
    }
  } catch (const std::invalid_argument& e) {
    r.fail(e.what());
  }
  r.fail("unknown model tag '" + tag + "'");
}

}  // namespace

void ScaledPipeline::save(std::ostream& os) const {
  if (!is_fitted()) throw std::logic_error("scaled_pipeline save: not fitted");
  io::write_header(os, "scaled_pipeline");
  scaler_.save(os);
  inner_->save(os);
  os << "end\n";
}

std::unique_ptr<Regressor> load_model(std::istream& is) {
  return load_block(util::TokenReader(is, "load_model"), 0);
}

std::unique_ptr<Regressor> load_model(const util::TokenReader& reader) {
  return load_block(reader, 0);
}

void save_model_file(const std::filesystem::path& path, const Regressor& model) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("save_model_file: cannot open " + path.string());
  }
  model.save(os);
  if (!os.flush()) {
    throw std::runtime_error("save_model_file: write failed for " +
                             path.string());
  }
}

std::unique_ptr<Regressor> load_model_file(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("load_model_file: cannot open " + path.string());
  }
  return load_block(util::TokenReader(is, path.string()), 0);
}

}  // namespace ffr::ml
