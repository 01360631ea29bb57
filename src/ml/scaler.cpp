#include "ml/scaler.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "ml/serialize.hpp"

namespace ffr::ml {

void StandardScaler::fit(const linalg::Matrix& x) {
  if (x.rows() == 0) throw std::invalid_argument("StandardScaler::fit: empty");
  mean_.assign(x.cols(), 0.0);
  std_.assign(x.cols(), 0.0);
  for (std::size_t c = 0; c < x.cols(); ++c) {
    const linalg::Vector col = x.col_copy(c);
    mean_[c] = linalg::mean(col);
    const double sd = linalg::stddev(col);
    std_[c] = sd > 0.0 ? sd : 1.0;  // constant column: centre only
  }
}

linalg::Matrix StandardScaler::transform(const linalg::Matrix& x) const {
  if (!is_fitted()) throw std::logic_error("StandardScaler: not fitted");
  if (x.cols() != mean_.size()) {
    throw std::invalid_argument(
        "StandardScaler: fitted on " + std::to_string(mean_.size()) +
        " columns but X is " + std::to_string(x.rows()) + "x" +
        std::to_string(x.cols()));
  }
  linalg::Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      out(r, c) = (x(r, c) - mean_[c]) / std_[c];
    }
  }
  return out;
}

void StandardScaler::save(std::ostream& os) const {
  if (!is_fitted()) throw std::logic_error("StandardScaler::save: not fitted");
  io::write_vector(os, "scaler_mean", mean_);
  io::write_vector(os, "scaler_std", std_);
}

StandardScaler StandardScaler::load(const util::TokenReader& r) {
  StandardScaler scaler;
  scaler.mean_ = io::read_vector(r, "scaler_mean");
  scaler.std_ = io::read_vector(r, "scaler_std");
  if (scaler.std_.size() != scaler.mean_.size()) {
    r.fail("scaler mean/std size mismatch");
  }
  return scaler;
}

}  // namespace ffr::ml
