#pragma once
/// \file model.hpp
/// \brief Regressor interface for the from-scratch ML library.
///
/// Mirrors the slice of scikit-learn the paper uses: fit/predict plus
/// uniform hyperparameter access so random/grid search can drive any model
/// generically. Concrete models: LinearLeastSquares (linear.hpp),
/// KnnRegressor (knn.hpp), SvrRegressor (svr.hpp), the tree ensembles
/// (tree.hpp) and the scaler+model Pipeline (pipeline.hpp); the model zoo
/// (model_zoo.hpp) constructs them by name with the paper's tuned
/// configurations.

#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "linalg/matrix.hpp"
#include "util/token_reader.hpp"

namespace ffr::ml {

using linalg::Matrix;
using linalg::Vector;

/// Hyperparameters are name -> double; categorical choices are encoded as
/// small integers (documented per model).
using ParamMap = std::map<std::string, double, std::less<>>;

/// Abstract base class of every regression model in the library.
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Fits the model on rows of \p x against targets \p y.
  /// \param x Design matrix, one sample per row.
  /// \param y Targets, one per row of \p x.
  /// \throws std::invalid_argument on shape mismatch or empty data.
  virtual void fit(const Matrix& x, std::span<const double> y) = 0;

  /// Predicts one value per row of \p x.
  /// \pre fit() has been called (see is_fitted()).
  [[nodiscard]] virtual Vector predict(const Matrix& x) const = 0;

  /// \return A deep copy, fitted state included.
  [[nodiscard]] virtual std::unique_ptr<Regressor> clone() const = 0;

  /// \return A short human-readable model name (e.g. "knn", "svr").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Sets hyperparameters by name (see ParamMap for the encoding).
  /// \throws std::invalid_argument on unknown keys.
  virtual void set_params(const ParamMap& params) {
    if (!params.empty()) {
      throw std::invalid_argument(name() + " has no hyperparameters");
    }
  }

  /// \return The current hyperparameter values, by name.
  [[nodiscard]] virtual ParamMap get_params() const { return {}; }

  /// \return Whether fit() has completed, i.e. predict() may be called.
  [[nodiscard]] virtual bool is_fitted() const noexcept = 0;

  /// Serializes hyperparameters plus the complete fitted state in the
  /// versioned text format of serialize.hpp; ml::load_model() reconstructs
  /// the model and its predictions bit-identically, through each concrete
  /// class's static `load_body(const util::TokenReader&)`.
  /// \throws std::logic_error when the model is not fitted.
  virtual void save(std::ostream& os) const = 0;

 protected:
  /// Validates fit() inputs; the error names both shapes.
  /// \throws std::invalid_argument on an empty matrix or a row/label mismatch.
  static void check_fit_args(const Matrix& x, std::span<const double> y) {
    if (x.rows() == 0 || x.cols() == 0) {
      throw std::invalid_argument("fit: empty design matrix (X is " +
                                  std::to_string(x.rows()) + "x" +
                                  std::to_string(x.cols()) + ")");
    }
    if (x.rows() != y.size()) {
      throw std::invalid_argument(
          "fit: X has " + std::to_string(x.rows()) + " rows but y has " +
          std::to_string(y.size()) + " labels");
    }
  }

  /// Validates that predict() sees the feature count the model was fitted
  /// on; the error names the model and both shapes.
  /// \throws std::invalid_argument on feature-count drift.
  static void check_predict_args(std::string_view model,
                                 std::size_t fitted_features, const Matrix& x) {
    if (x.cols() != fitted_features) {
      throw std::invalid_argument(
          std::string(model) + " predict: model was fitted on " +
          std::to_string(fitted_features) + " features but X is " +
          std::to_string(x.rows()) + "x" + std::to_string(x.cols()));
    }
  }
};

}  // namespace ffr::ml
