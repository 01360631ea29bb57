#pragma once
// epsilon-Support Vector Regression (paper §IV-B.3), trained by Sequential
// Minimal Optimization on the dual
//
//   min_beta  1/2 beta^T K beta - y^T beta + eps * ||beta||_1
//   s.t.      sum(beta) = 0,  -C <= beta_i <= C
//
// where beta_i = alpha_i - alpha_i^* (Smola & Schoelkopf formulation).
// Kernels: RBF exp(-gamma ||x-z||^2), linear, polynomial.

#include "ml/model.hpp"

namespace ffr::ml {

enum class SvrKernel : int { kRbf = 0, kLinear = 1, kPoly = 2 };

struct SvrConfig {
  double c = 1.0;            // box constraint
  double epsilon = 0.1;      // insensitive-tube half width
  double gamma = 0.1;        // RBF width / poly scale
  SvrKernel kernel = SvrKernel::kRbf;
  int poly_degree = 3;
  double tol = 1e-3;         // KKT feasibility-gap tolerance
  std::size_t max_passes = 200000;  // SMO pair-update budget
};

class SvrRegressor final : public Regressor {
 public:
  explicit SvrRegressor(SvrConfig config = {});

  void fit(const Matrix& x, std::span<const double> y) override;
  [[nodiscard]] Vector predict(const Matrix& x) const override;
  [[nodiscard]] std::unique_ptr<Regressor> clone() const override {
    return std::make_unique<SvrRegressor>(*this);
  }
  [[nodiscard]] std::string name() const override { return "svr"; }
  [[nodiscard]] bool is_fitted() const noexcept override { return fitted_; }

  void save(std::ostream& os) const override;
  /// Reads the body written by save() (header already consumed). final_gap()
  /// is a training diagnostic and is not persisted; it reloads as 0.
  [[nodiscard]] static std::unique_ptr<SvrRegressor> load_body(
      const util::TokenReader& r);

  /// Parameters: "C", "epsilon", "gamma", "kernel" (0 rbf / 1 linear /
  /// 2 poly), "degree".
  void set_params(const ParamMap& params) override;
  [[nodiscard]] ParamMap get_params() const override;

  [[nodiscard]] double kernel(std::span<const double> a,
                              std::span<const double> b) const;

  /// Number of support vectors (|beta_i| > 0 after training).
  [[nodiscard]] std::size_t num_support_vectors() const noexcept {
    return support_x_.rows();
  }
  [[nodiscard]] double bias() const noexcept { return bias_; }
  /// Final KKT feasibility gap (diagnostics; <= tol on clean convergence).
  [[nodiscard]] double final_gap() const noexcept { return final_gap_; }

 private:
  SvrConfig config_;
  Matrix support_x_;
  Vector support_beta_;
  double bias_ = 0.0;
  double final_gap_ = 0.0;
  std::size_t n_features_ = 0;
  bool fitted_ = false;
};

}  // namespace ffr::ml
