#pragma once
/// \file decompositions.hpp
/// \brief Numerical factorizations used by the ML models:
/// - Householder QR with column pivoting -> rank-revealing least squares
/// (backs LinearLeastSquares, matching scipy.linalg.lstsq behaviour on
/// rank-deficient designs closely enough for this problem size)
/// - Cholesky -> ridge normal equations and SPD solves.

#include "linalg/matrix.hpp"

namespace ffr::linalg {

/// Householder QR factorization A = Q R (A is m x n, m >= n not required).
class QrDecomposition {
 public:
  explicit QrDecomposition(Matrix a);

  /// Minimum-norm-ish least squares solution of A x = b using the QR factors.
  /// For rank-deficient A, pivoted columns with |R(i,i)| below tolerance are
  /// zeroed (basic solution). Throws on dimension mismatch.
  [[nodiscard]] Vector solve(std::span<const double> b) const;

  /// Numerical rank with the default tolerance.
  [[nodiscard]] std::size_t rank() const noexcept { return rank_; }

  /// Apply Q^T to a vector of length m.
  [[nodiscard]] Vector apply_qt(std::span<const double> b) const;

 private:
  Matrix qr_;                     // Householder vectors below diag, R on/above
  Vector tau_;                    // Householder scalar factors
  std::vector<std::size_t> perm_;  // column pivot permutation
  std::size_t rank_ = 0;
};

/// Cholesky factorization of a symmetric positive definite matrix, A = L L^T.
class CholeskyDecomposition {
 public:
  /// Throws std::runtime_error if the matrix is not SPD (within tolerance).
  explicit CholeskyDecomposition(const Matrix& a);

  [[nodiscard]] Vector solve(std::span<const double> b) const;
  [[nodiscard]] const Matrix& lower() const noexcept { return l_; }

 private:
  Matrix l_;
};

/// Least-squares solve min ||A x - b||_2 via pivoted QR.
[[nodiscard]] Vector lstsq(const Matrix& a, std::span<const double> b);

/// Solve (A^T A + lambda I) x = A^T b (ridge regression normal equations).
[[nodiscard]] Vector ridge_solve(const Matrix& a, std::span<const double> b,
                                 double lambda);

}  // namespace ffr::linalg
