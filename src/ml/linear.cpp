#include "ml/linear.hpp"

#include <ostream>

#include "linalg/decompositions.hpp"
#include "ml/serialize.hpp"

namespace ffr::ml {

void LinearLeastSquares::fit(const Matrix& x, std::span<const double> y) {
  check_fit_args(x, y);
  const Matrix design = x.with_bias_column();
  const Vector beta = linalg::lstsq(design, y);
  intercept_ = beta[0];
  coef_.assign(beta.begin() + 1, beta.end());
  fitted_ = true;
}

Vector LinearLeastSquares::predict(const Matrix& x) const {
  if (!fitted_) throw std::logic_error("LinearLeastSquares: not fitted");
  check_predict_args(name(), coef_.size(), x);
  Vector out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out[r] = intercept_ + linalg::dot(x.row(r), coef_);
  }
  return out;
}

void LinearLeastSquares::save(std::ostream& os) const {
  if (!fitted_) throw std::logic_error("linear_least_squares save: not fitted");
  io::write_header(os, "linear_least_squares");
  os << "intercept ";
  util::write_double(os, intercept_);
  os << '\n';
  io::write_vector(os, "coef", coef_);
  os << "end\n";
}

std::unique_ptr<LinearLeastSquares> LinearLeastSquares::load_body(
    const util::TokenReader& r) {
  auto model = std::make_unique<LinearLeastSquares>();
  r.expect("intercept");
  model->intercept_ = r.dbl();
  model->coef_ = io::read_vector(r, "coef");
  r.expect("end");
  model->fitted_ = true;
  return model;
}

void RidgeRegression::set_params(const ParamMap& params) {
  for (const auto& [key, value] : params) {
    if (key == "alpha") {
      alpha_ = value;
    } else {
      throw std::invalid_argument("ridge: unknown parameter '" + key + "'");
    }
  }
}

void RidgeRegression::fit(const Matrix& x, std::span<const double> y) {
  check_fit_args(x, y);
  // Centre columns and target so the intercept is unpenalized.
  Vector col_mean(x.cols(), 0.0);
  for (std::size_t c = 0; c < x.cols(); ++c) {
    col_mean[c] = linalg::mean(x.col_copy(c));
  }
  const double y_mean = linalg::mean(y);
  Matrix centred(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      centred(r, c) = x(r, c) - col_mean[c];
    }
  }
  Vector y_centred(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) y_centred[i] = y[i] - y_mean;
  coef_ = linalg::ridge_solve(centred, y_centred, alpha_);
  intercept_ = y_mean - linalg::dot(col_mean, coef_);
  fitted_ = true;
}

Vector RidgeRegression::predict(const Matrix& x) const {
  if (!fitted_) throw std::logic_error("ridge: not fitted");
  check_predict_args(name(), coef_.size(), x);
  Vector out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out[r] = intercept_ + linalg::dot(x.row(r), coef_);
  }
  return out;
}

void RidgeRegression::save(std::ostream& os) const {
  if (!fitted_) throw std::logic_error("ridge save: not fitted");
  io::write_header(os, "ridge");
  os << "alpha ";
  util::write_double(os, alpha_);
  os << "\nintercept ";
  util::write_double(os, intercept_);
  os << '\n';
  io::write_vector(os, "coef", coef_);
  os << "end\n";
}

std::unique_ptr<RidgeRegression> RidgeRegression::load_body(
    const util::TokenReader& r) {
  r.expect("alpha");
  auto model = std::make_unique<RidgeRegression>(r.dbl());
  r.expect("intercept");
  model->intercept_ = r.dbl();
  model->coef_ = io::read_vector(r, "coef");
  r.expect("end");
  model->fitted_ = true;
  return model;
}

}  // namespace ffr::ml
