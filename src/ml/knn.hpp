#pragma once
// k-Nearest Neighbors regressor (paper §IV-B.2): predicts the (optionally
// inverse-distance-weighted) average of the k closest training points under
// a Minkowski metric. The paper's tuned configuration is k=3 with the
// Manhattan distance and distance weighting.

#include "ml/model.hpp"

namespace ffr::ml {

enum class KnnWeights : int { kUniform = 0, kDistance = 1 };

class KnnRegressor final : public Regressor {
 public:
  /// `minkowski_p`: 1 = Manhattan, 2 = Euclidean, other p >= 1 supported.
  explicit KnnRegressor(std::size_t k = 5, double minkowski_p = 2.0,
                        KnnWeights weights = KnnWeights::kDistance);

  void fit(const Matrix& x, std::span<const double> y) override;
  [[nodiscard]] Vector predict(const Matrix& x) const override;
  [[nodiscard]] std::unique_ptr<Regressor> clone() const override {
    return std::make_unique<KnnRegressor>(*this);
  }
  [[nodiscard]] std::string name() const override { return "knn"; }
  [[nodiscard]] bool is_fitted() const noexcept override { return !train_y_.empty(); }

  void save(std::ostream& os) const override;
  /// Reads the body written by save() (header already consumed).
  [[nodiscard]] static std::unique_ptr<KnnRegressor> load_body(
      const util::TokenReader& r);

  /// Parameters: "k" (>=1), "p" (Minkowski exponent), "weights" (0 uniform,
  /// 1 inverse distance).
  void set_params(const ParamMap& params) override;
  [[nodiscard]] ParamMap get_params() const override;

  [[nodiscard]] double distance(std::span<const double> a,
                                std::span<const double> b) const;

 private:
  std::size_t k_;
  double p_;
  KnnWeights weights_;
  Matrix train_x_;
  Vector train_y_;
};

}  // namespace ffr::ml
