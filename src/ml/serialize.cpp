#include "ml/serialize.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "ml/pipeline.hpp"
#include "ml/svr.hpp"
#include "ml/tree.hpp"

namespace ffr::ml {

namespace io {

void write_double(std::ostream& os, double value) {
  // 17 significant digits round-trip IEEE-754 binary64 exactly; inf/nan
  // print as "inf"/"nan", which read_double() parses back via strtod.
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  os << buffer;
}

void write_size(std::ostream& os, std::uint64_t value) { os << value; }

void write_vector(std::ostream& os, std::string_view key,
                  const linalg::Vector& values) {
  os << key << ' ' << values.size();
  for (const double v : values) {
    os << ' ';
    write_double(os, v);
  }
  os << '\n';
}

void write_matrix(std::ostream& os, std::string_view key,
                  const linalg::Matrix& matrix) {
  os << key << ' ' << matrix.rows() << ' ' << matrix.cols();
  for (const double v : matrix.data()) {
    os << ' ';
    write_double(os, v);
  }
  os << '\n';
}

std::string read_token(std::istream& is) {
  std::string token;
  if (!(is >> token)) {
    throw std::runtime_error("load_model: unexpected end of stream");
  }
  return token;
}

void expect_token(std::istream& is, std::string_view expected) {
  const std::string token = read_token(is);
  if (token != expected) {
    throw std::runtime_error("load_model: expected '" + std::string(expected) +
                             "', got '" + token + "'");
  }
}

double read_double(std::istream& is) {
  const std::string token = read_token(is);
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) {
    throw std::runtime_error("load_model: malformed number '" + token + "'");
  }
  return value;
}

std::uint64_t read_size(std::istream& is, std::uint64_t max) {
  const std::string token = read_token(is);
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || token.empty() || token[0] == '-' ||
      errno == ERANGE) {
    throw std::runtime_error("load_model: malformed count '" + token + "'");
  }
  if (value > max) {
    throw std::runtime_error("load_model: count " + token +
                             " exceeds the sanity limit " + std::to_string(max));
  }
  return value;
}

// The readers below grow their storage only as values are read, so a count
// field larger than the stream holds fails at the stream's end instead of
// sizing an allocation first.
linalg::Vector read_vector(std::istream& is, std::string_view key) {
  expect_token(is, key);
  const std::uint64_t n = read_size(is);
  linalg::Vector values;
  for (std::uint64_t i = 0; i < n; ++i) values.push_back(read_double(is));
  return values;
}

linalg::Matrix read_matrix(std::istream& is, std::string_view key) {
  expect_token(is, key);
  const std::uint64_t rows = read_size(is);
  const std::uint64_t cols = read_size(is);
  if (rows != 0 && cols > (std::uint64_t{1} << 32) / rows) {
    throw std::runtime_error("load_model: matrix " + std::to_string(rows) + "x" +
                             std::to_string(cols) + " exceeds the sanity limit");
  }
  linalg::Vector values;
  for (std::uint64_t i = 0; i < rows * cols; ++i) {
    values.push_back(read_double(is));
  }
  linalg::Matrix matrix(static_cast<std::size_t>(rows),
                        static_cast<std::size_t>(cols));
  std::copy(values.begin(), values.end(), matrix.data().begin());
  return matrix;
}

void write_header(std::ostream& os, std::string_view tag) {
  os << "ffr-model " << kModelFormatVersion << ' ' << tag << '\n';
}

}  // namespace io

void ScaledPipeline::save(std::ostream& os) const {
  if (!is_fitted()) throw std::logic_error("scaled_pipeline save: not fitted");
  io::write_header(os, "scaled_pipeline");
  scaler_.save(os);
  inner_->save(os);
  os << "end\n";
}

void save_model(std::ostream& os, const Regressor& model) { model.save(os); }

std::unique_ptr<Regressor> load_model(std::istream& is) {
  const std::string magic = io::read_token(is);
  if (magic != "ffr-model") {
    throw std::runtime_error("load_model: bad magic '" + magic +
                             "' (not an ffr model file)");
  }
  const std::uint64_t version = io::read_size(is);
  if (version != static_cast<std::uint64_t>(kModelFormatVersion)) {
    throw std::runtime_error("load_model: unsupported format version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kModelFormatVersion) + ")");
  }
  const std::string tag = io::read_token(is);
  if (tag == "linear_least_squares") return LinearLeastSquares::load_body(is);
  if (tag == "ridge") return RidgeRegression::load_body(is);
  if (tag == "knn") return KnnRegressor::load_body(is);
  if (tag == "svr") return SvrRegressor::load_body(is);
  if (tag == "decision_tree") return DecisionTreeRegressor::load_body(is);
  if (tag == "random_forest") return RandomForestRegressor::load_body(is);
  if (tag == "gradient_boosting") return GradientBoostingRegressor::load_body(is);
  if (tag == "scaled_pipeline") {
    StandardScaler scaler = StandardScaler::load(is);
    std::unique_ptr<Regressor> inner = load_model(is);
    io::expect_token(is, "end");
    return std::make_unique<ScaledPipeline>(std::move(scaler), std::move(inner));
  }
  throw std::runtime_error("load_model: unknown model tag '" + tag + "'");
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
  return load_model(is);
}

}  // namespace ffr::ml
