#pragma once
// Linear Least Squares regressor (paper §IV-B.1): fits y ~ w·x + b by
// minimizing the residual sum of squares, solved with rank-revealing
// pivoted QR. Also a ridge variant for the extension benches.

#include "ml/model.hpp"

namespace ffr::ml {

class LinearLeastSquares final : public Regressor {
 public:
  void fit(const Matrix& x, std::span<const double> y) override;
  [[nodiscard]] Vector predict(const Matrix& x) const override;
  [[nodiscard]] std::unique_ptr<Regressor> clone() const override {
    return std::make_unique<LinearLeastSquares>(*this);
  }
  [[nodiscard]] std::string name() const override { return "linear_least_squares"; }
  [[nodiscard]] bool is_fitted() const noexcept override { return fitted_; }

  void save(std::ostream& os) const override;
  /// Reads the body written by save() (header already consumed by
  /// ml::load_model).
  [[nodiscard]] static std::unique_ptr<LinearLeastSquares> load_body(
      const util::TokenReader& r);

  [[nodiscard]] double intercept() const noexcept { return intercept_; }
  [[nodiscard]] const Vector& coefficients() const noexcept { return coef_; }

 private:
  Vector coef_;
  double intercept_ = 0.0;
  bool fitted_ = false;
};

/// Ridge regression: minimizes ||y - Xw - b||^2 + alpha ||w||^2
/// (the intercept is not penalized; columns are centred internally).
class RidgeRegression final : public Regressor {
 public:
  explicit RidgeRegression(double alpha = 1.0) : alpha_(alpha) {}

  void fit(const Matrix& x, std::span<const double> y) override;
  [[nodiscard]] Vector predict(const Matrix& x) const override;
  [[nodiscard]] std::unique_ptr<Regressor> clone() const override {
    return std::make_unique<RidgeRegression>(*this);
  }
  [[nodiscard]] std::string name() const override { return "ridge"; }
  [[nodiscard]] bool is_fitted() const noexcept override { return fitted_; }

  void save(std::ostream& os) const override;
  /// Reads the body written by save() (header already consumed).
  [[nodiscard]] static std::unique_ptr<RidgeRegression> load_body(
      const util::TokenReader& r);

  void set_params(const ParamMap& params) override;
  [[nodiscard]] ParamMap get_params() const override { return {{"alpha", alpha_}}; }

 private:
  double alpha_;
  Vector coef_;
  double intercept_ = 0.0;
  bool fitted_ = false;
};

}  // namespace ffr::ml
