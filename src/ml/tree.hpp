#pragma once
// CART regression tree (variance-reduction splits) plus the ensemble models
// the paper's future-work section calls for: random forest (bagging +
// feature subsampling) and gradient boosting (shrunken residual fitting).

#include <cstdint>

#include "ml/model.hpp"
#include "util/rng.hpp"

namespace ffr::ml {

struct TreeConfig {
  std::size_t max_depth = 10;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Number of features examined per split; 0 = all.
  std::size_t max_features = 0;
  std::uint64_t seed = 1;  // used only when max_features > 0
};

class DecisionTreeRegressor final : public Regressor {
 public:
  explicit DecisionTreeRegressor(TreeConfig config = {});

  void fit(const Matrix& x, std::span<const double> y) override;
  [[nodiscard]] Vector predict(const Matrix& x) const override;
  [[nodiscard]] std::unique_ptr<Regressor> clone() const override {
    return std::make_unique<DecisionTreeRegressor>(*this);
  }
  [[nodiscard]] std::string name() const override { return "decision_tree"; }
  [[nodiscard]] bool is_fitted() const noexcept override { return !nodes_.empty(); }

  /// Parameters: "max_depth", "min_samples_split", "min_samples_leaf",
  /// "max_features", "seed".
  void set_params(const ParamMap& params) override;
  [[nodiscard]] ParamMap get_params() const override;

  void save(std::ostream& os) const override;
  /// Reads the body written by save() (header already consumed).
  [[nodiscard]] static std::unique_ptr<DecisionTreeRegressor> load_body(
      const util::TokenReader& r);

  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t num_features() const noexcept { return n_features_; }

  /// Fit against sample weights implied by an index multiset (bootstrap).
  void fit_on_indices(const Matrix& x, std::span<const double> y,
                      std::span<const std::size_t> indices);

 private:
  struct Node {
    // Leaf when feature == kLeaf.
    static constexpr std::uint32_t kLeaf = ~std::uint32_t{0};
    std::uint32_t feature = kLeaf;
    double threshold = 0.0;  // go left when x[feature] <= threshold
    std::uint32_t left = 0;
    std::uint32_t right = 0;
    double value = 0.0;  // leaf prediction
  };

  std::uint32_t build(const Matrix& x, std::span<const double> y,
                      std::vector<std::size_t>& indices, std::size_t begin,
                      std::size_t end, std::size_t depth, util::Rng& rng);
  [[nodiscard]] double predict_row(std::span<const double> row) const;

  TreeConfig config_;
  std::vector<Node> nodes_;
  std::size_t depth_ = 0;
  std::size_t n_features_ = 0;
};

struct ForestConfig {
  std::size_t n_estimators = 50;
  TreeConfig tree{};           // per-tree limits
  double max_features_frac = 0.6;  // features per split
  std::uint64_t seed = 7;
};

class RandomForestRegressor final : public Regressor {
 public:
  explicit RandomForestRegressor(ForestConfig config = {});

  void fit(const Matrix& x, std::span<const double> y) override;
  [[nodiscard]] Vector predict(const Matrix& x) const override;
  [[nodiscard]] std::unique_ptr<Regressor> clone() const override {
    return std::make_unique<RandomForestRegressor>(*this);
  }
  [[nodiscard]] std::string name() const override { return "random_forest"; }
  [[nodiscard]] bool is_fitted() const noexcept override { return !trees_.empty(); }

  /// Parameters: "n_estimators", "max_depth", "max_features_frac", "seed".
  void set_params(const ParamMap& params) override;
  [[nodiscard]] ParamMap get_params() const override;

  void save(std::ostream& os) const override;
  /// Reads the body written by save() (header already consumed).
  [[nodiscard]] static std::unique_ptr<RandomForestRegressor> load_body(
      const util::TokenReader& r);

 private:
  ForestConfig config_;
  std::vector<DecisionTreeRegressor> trees_;
};

struct BoostingConfig {
  std::size_t n_estimators = 200;
  double learning_rate = 0.1;
  TreeConfig tree{.max_depth = 3};
  std::uint64_t seed = 11;
};

class GradientBoostingRegressor final : public Regressor {
 public:
  explicit GradientBoostingRegressor(BoostingConfig config = {});

  void fit(const Matrix& x, std::span<const double> y) override;
  [[nodiscard]] Vector predict(const Matrix& x) const override;
  [[nodiscard]] std::unique_ptr<Regressor> clone() const override {
    return std::make_unique<GradientBoostingRegressor>(*this);
  }
  [[nodiscard]] std::string name() const override { return "gradient_boosting"; }
  [[nodiscard]] bool is_fitted() const noexcept override { return fitted_; }

  /// Parameters: "n_estimators", "learning_rate", "max_depth".
  void set_params(const ParamMap& params) override;
  [[nodiscard]] ParamMap get_params() const override;

  void save(std::ostream& os) const override;
  /// Reads the body written by save() (header already consumed).
  [[nodiscard]] static std::unique_ptr<GradientBoostingRegressor> load_body(
      const util::TokenReader& r);

 private:
  BoostingConfig config_;
  double base_prediction_ = 0.0;
  std::vector<DecisionTreeRegressor> trees_;
  bool fitted_ = false;
};

}  // namespace ffr::ml
