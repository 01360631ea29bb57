#include "ml/knn.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "ml/serialize.hpp"

namespace ffr::ml {

KnnRegressor::KnnRegressor(std::size_t k, double minkowski_p, KnnWeights weights)
    : k_(k), p_(minkowski_p), weights_(weights) {
  if (k == 0) throw std::invalid_argument("knn: k must be >= 1");
  if (minkowski_p < 1.0) throw std::invalid_argument("knn: p must be >= 1");
}

void KnnRegressor::set_params(const ParamMap& params) {
  for (const auto& [key, value] : params) {
    if (key == "k") {
      if (value < 1.0) throw std::invalid_argument("knn: k must be >= 1");
      k_ = static_cast<std::size_t>(value);
    } else if (key == "p") {
      if (value < 1.0) throw std::invalid_argument("knn: p must be >= 1");
      p_ = value;
    } else if (key == "weights") {
      weights_ = value != 0.0 ? KnnWeights::kDistance : KnnWeights::kUniform;
    } else {
      throw std::invalid_argument("knn: unknown parameter '" + key + "'");
    }
  }
}

ParamMap KnnRegressor::get_params() const {
  return {{"k", static_cast<double>(k_)},
          {"p", p_},
          {"weights", static_cast<double>(static_cast<int>(weights_))}};
}

double KnnRegressor::distance(std::span<const double> a,
                              std::span<const double> b) const {
  double acc = 0.0;
  if (p_ == 1.0) {
    for (std::size_t i = 0; i < a.size(); ++i) acc += std::abs(a[i] - b[i]);
    return acc;
  }
  if (p_ == 2.0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double d = a[i] - b[i];
      acc += d * d;
    }
    return std::sqrt(acc);
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += std::pow(std::abs(a[i] - b[i]), p_);
  }
  return std::pow(acc, 1.0 / p_);
}

void KnnRegressor::fit(const Matrix& x, std::span<const double> y) {
  check_fit_args(x, y);
  train_x_ = x;
  train_y_.assign(y.begin(), y.end());
}

void KnnRegressor::save(std::ostream& os) const {
  if (!is_fitted()) throw std::logic_error("knn save: not fitted");
  io::write_header(os, "knn");
  os << "k " << k_ << "\np ";
  util::write_double(os, p_);
  os << "\nweights " << static_cast<int>(weights_) << '\n';
  io::write_matrix(os, "train_x", train_x_);
  io::write_vector(os, "train_y", train_y_);
  os << "end\n";
}

std::unique_ptr<KnnRegressor> KnnRegressor::load_body(
    const util::TokenReader& r) {
  r.expect("k");
  const auto k = static_cast<std::size_t>(r.u64(io::kMaxCount));
  r.expect("p");
  const double p = r.dbl();
  r.expect("weights");
  const std::uint64_t weights = r.u64(io::kMaxCount);
  if (weights > 1) {
    r.fail("knn weights must be 0 or 1, got " + std::to_string(weights));
  }
  auto model = std::make_unique<KnnRegressor>(
      k, p, weights != 0 ? KnnWeights::kDistance : KnnWeights::kUniform);
  model->train_x_ = io::read_matrix(r, "train_x");
  model->train_y_ = io::read_vector(r, "train_y");
  if (model->train_y_.size() != model->train_x_.rows()) {
    r.fail("knn train_x/train_y row mismatch");
  }
  r.expect("end");
  return model;
}

Vector KnnRegressor::predict(const Matrix& x) const {
  if (!is_fitted()) throw std::logic_error("knn: not fitted");
  check_predict_args(name(), train_x_.cols(), x);
  const std::size_t n_train = train_x_.rows();
  const std::size_t k = std::min(k_, n_train);

  Vector out(x.rows());
  std::vector<std::pair<double, std::size_t>> dist(n_train);
  for (std::size_t q = 0; q < x.rows(); ++q) {
    const auto query = x.row(q);
    for (std::size_t t = 0; t < n_train; ++t) {
      dist[t] = {distance(query, train_x_.row(t)), t};
    }
    std::partial_sort(dist.begin(), dist.begin() + static_cast<long>(k),
                      dist.end());
    if (weights_ == KnnWeights::kUniform) {
      double sum = 0.0;
      for (std::size_t i = 0; i < k; ++i) sum += train_y_[dist[i].second];
      out[q] = sum / static_cast<double>(k);
      continue;
    }
    // Inverse-distance weights; an exact match dominates (scikit-learn
    // returns the exact neighbours' mean in that case).
    bool exact = false;
    double exact_sum = 0.0;
    std::size_t exact_count = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (dist[i].first == 0.0) {
        exact = true;
        exact_sum += train_y_[dist[i].second];
        ++exact_count;
      }
    }
    if (exact) {
      out[q] = exact_sum / static_cast<double>(exact_count);
      continue;
    }
    double weight_sum = 0.0;
    double value_sum = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double w = 1.0 / dist[i].first;
      weight_sum += w;
      value_sum += w * train_y_[dist[i].second];
    }
    out[q] = value_sum / weight_sum;
  }
  return out;
}

}  // namespace ffr::ml
