#pragma once
/// \file scaler.hpp
/// \brief Feature scaling. k-NN and SVR are distance/kernel based, so features
/// with large ranges (state-change counts in the thousands vs. 0-1 activity
/// ratios) must be standardized before training, exactly as a scikit-learn
/// pipeline would. For *cross-circuit* scaling — where the statistics must
/// come from each circuit's own feature matrix rather than the training
/// set — see features::DomainScaler (features/domain_scaler.hpp).

#include <iosfwd>

#include "linalg/matrix.hpp"
#include "util/token_reader.hpp"

namespace ffr::ml {

/// Column-wise standardization: z = (x - mean) / std. Constant columns pass
/// through centred (their std is treated as 1). Fitted statistics persist
/// with the owning model via save()/load() (see serialize.hpp).
class StandardScaler {
 public:
  /// Learns per-column mean and standard deviation from `x`.
  /// \throws std::invalid_argument when `x` has no rows.
  void fit(const linalg::Matrix& x);

  /// Applies the fitted affine map column-wise.
  /// \throws std::logic_error before fit(); std::invalid_argument when the
  ///         column count differs from the fitted one (message names both).
  [[nodiscard]] linalg::Matrix transform(const linalg::Matrix& x) const;

  /// fit() then transform() on the same matrix.
  [[nodiscard]] linalg::Matrix fit_transform(const linalg::Matrix& x) {
    fit(x);
    return transform(x);
  }

  /// \return Whether fit() has been called.
  [[nodiscard]] bool is_fitted() const noexcept { return !mean_.empty(); }

  /// \return The fitted per-column means.
  [[nodiscard]] const linalg::Vector& means() const noexcept { return mean_; }

  /// \return The fitted per-column standard deviations (1 for constant columns).
  [[nodiscard]] const linalg::Vector& stddevs() const noexcept { return std_; }

  /// Writes the fitted statistics as a `scaler` block (serialize.hpp format).
  /// \throws std::logic_error before fit().
  void save(std::ostream& os) const;

  /// Reads a block written by save().
  /// \throws std::runtime_error on a malformed or truncated block.
  [[nodiscard]] static StandardScaler load(const util::TokenReader& r);

 private:
  linalg::Vector mean_;
  linalg::Vector std_;
};

}  // namespace ffr::ml
