#include "ml/svr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "ml/serialize.hpp"

namespace ffr::ml {

SvrRegressor::SvrRegressor(SvrConfig config) : config_(config) {
  if (config.c <= 0.0) throw std::invalid_argument("svr: C must be > 0");
  if (config.epsilon < 0.0) throw std::invalid_argument("svr: epsilon >= 0");
  if (config.gamma <= 0.0) throw std::invalid_argument("svr: gamma must be > 0");
}

void SvrRegressor::set_params(const ParamMap& params) {
  for (const auto& [key, value] : params) {
    if (key == "C") {
      if (value <= 0) throw std::invalid_argument("svr: C must be > 0");
      config_.c = value;
    } else if (key == "epsilon") {
      if (value < 0) throw std::invalid_argument("svr: epsilon >= 0");
      config_.epsilon = value;
    } else if (key == "gamma") {
      if (value <= 0) throw std::invalid_argument("svr: gamma must be > 0");
      config_.gamma = value;
    } else if (key == "kernel") {
      config_.kernel = static_cast<SvrKernel>(static_cast<int>(value));
    } else if (key == "degree") {
      config_.poly_degree = static_cast<int>(value);
    } else {
      throw std::invalid_argument("svr: unknown parameter '" + key + "'");
    }
  }
}

ParamMap SvrRegressor::get_params() const {
  return {{"C", config_.c},
          {"epsilon", config_.epsilon},
          {"gamma", config_.gamma},
          {"kernel", static_cast<double>(static_cast<int>(config_.kernel))},
          {"degree", static_cast<double>(config_.poly_degree)}};
}

double SvrRegressor::kernel(std::span<const double> a,
                            std::span<const double> b) const {
  switch (config_.kernel) {
    case SvrKernel::kRbf: {
      double sq = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        sq += d * d;
      }
      return std::exp(-config_.gamma * sq);
    }
    case SvrKernel::kLinear:
      return linalg::dot(a, b);
    case SvrKernel::kPoly:
      return std::pow(config_.gamma * linalg::dot(a, b) + 1.0,
                      config_.poly_degree);
  }
  throw std::logic_error("svr: unknown kernel");
}

void SvrRegressor::save(std::ostream& os) const {
  if (!fitted_) throw std::logic_error("svr save: not fitted");
  io::write_header(os, "svr");
  os << "config ";
  util::write_double(os, config_.c);
  os << ' ';
  util::write_double(os, config_.epsilon);
  os << ' ';
  util::write_double(os, config_.gamma);
  os << ' ' << static_cast<int>(config_.kernel) << ' ' << config_.poly_degree
     << ' ';
  util::write_double(os, config_.tol);
  os << ' ' << config_.max_passes << '\n';
  os << "n_features " << n_features_ << "\nbias ";
  util::write_double(os, bias_);
  os << '\n';
  io::write_matrix(os, "support_x", support_x_);
  io::write_vector(os, "support_beta", support_beta_);
  os << "end\n";
}

std::unique_ptr<SvrRegressor> SvrRegressor::load_body(
    const util::TokenReader& r) {
  r.expect("config");
  SvrConfig config;
  config.c = r.dbl();
  config.epsilon = r.dbl();
  config.gamma = r.dbl();
  const std::uint64_t kernel = r.u64(io::kMaxCount);
  if (kernel > 2) {
    r.fail("svr kernel must be 0..2, got " + std::to_string(kernel));
  }
  config.kernel = static_cast<SvrKernel>(static_cast<int>(kernel));
  config.poly_degree = static_cast<int>(r.u64(io::kMaxCount));
  config.tol = r.dbl();
  config.max_passes = static_cast<std::size_t>(r.u64(io::kMaxCount));
  auto model = std::make_unique<SvrRegressor>(config);
  r.expect("n_features");
  model->n_features_ = static_cast<std::size_t>(r.u64(io::kMaxCount));
  r.expect("bias");
  model->bias_ = r.dbl();
  model->support_x_ = io::read_matrix(r, "support_x");
  model->support_beta_ = io::read_vector(r, "support_beta");
  if (model->support_beta_.size() != model->support_x_.rows()) {
    r.fail("svr support_x/support_beta row mismatch");
  }
  if (model->support_x_.rows() > 0 &&
      model->support_x_.cols() != model->n_features_) {
    r.fail("svr n_features " + std::to_string(model->n_features_) +
           " does not match support_x with " +
           std::to_string(model->support_x_.cols()) + " columns");
  }
  r.expect("end");
  model->fitted_ = true;
  return model;
}

void SvrRegressor::fit(const Matrix& x, std::span<const double> y) {
  check_fit_args(x, y);
  n_features_ = x.cols();
  const std::size_t n = x.rows();
  const double c = config_.c;
  const double eps = config_.epsilon;

  // Kernel matrix cache (n is ~1k at most in our workloads: fine).
  Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double kij = kernel(x.row(i), x.row(j));
      k(i, j) = kij;
      k(j, i) = kij;
    }
  }

  Vector beta(n, 0.0);
  Vector f(n, 0.0);  // f_i = sum_j beta_j K_ij (bias-free prediction)

  // Feasible-b interval per point, given beta_i's status (see DESIGN notes):
  // the optimum requires max_i low_i <= min_i up_i.
  const auto b_bounds = [&](std::size_t i) {
    const double e_i = y[i] - f[i];
    double low = -std::numeric_limits<double>::infinity();
    double up = std::numeric_limits<double>::infinity();
    const double margin = 1e-12 * std::max(1.0, c);
    if (beta[i] > margin && beta[i] < c - margin) {
      low = up = e_i - eps;
    } else if (beta[i] < -margin && beta[i] > -c + margin) {
      low = up = e_i + eps;
    } else if (std::abs(beta[i]) <= margin) {
      low = e_i - eps;
      up = e_i + eps;
    } else if (beta[i] >= c - margin) {
      up = e_i - eps;  // b can be anything <= E_i - eps
    } else {           // beta_i <= -c + margin
      low = e_i + eps;
    }
    return std::pair{low, up};
  };

  // Exact change of the dual objective when beta_i += delta, beta_j -= delta.
  const auto delta_objective = [&](std::size_t i, std::size_t j, double delta,
                                   double eta) {
    const double smooth =
        0.5 * eta * delta * delta + delta * ((f[i] - y[i]) - (f[j] - y[j]));
    const double l1 = eps * (std::abs(beta[i] + delta) - std::abs(beta[i]) +
                             std::abs(beta[j] - delta) - std::abs(beta[j]));
    return smooth + l1;
  };

  std::size_t passes = 0;
  double gap = std::numeric_limits<double>::infinity();
  while (passes < config_.max_passes) {
    // Most-violating pair: i maximizing low_i, j minimizing up_j.
    double max_low = -std::numeric_limits<double>::infinity();
    double min_up = std::numeric_limits<double>::infinity();
    std::size_t i_low = 0;
    std::size_t j_up = 0;
    for (std::size_t t = 0; t < n; ++t) {
      const auto [low, up] = b_bounds(t);
      if (low > max_low) {
        max_low = low;
        i_low = t;
      }
      if (up < min_up) {
        min_up = up;
        j_up = t;
      }
    }
    gap = max_low - min_up;
    if (gap <= config_.tol) break;

    const std::size_t i = i_low;
    const std::size_t j = j_up;
    const double eta = k(i, i) + k(j, j) - 2.0 * k(i, j);

    // Candidate deltas: box ends, sign breakpoints, and the stationary
    // points of the four smooth branches; the exact 1-D objective picks.
    const double lo = std::max(-c - beta[i], beta[j] - c);
    const double hi = std::min(c - beta[i], beta[j] + c);
    if (hi <= lo) {
      ++passes;
      continue;
    }
    std::vector<double> candidates{lo, hi};
    const auto add_candidate = [&](double d) {
      if (d > lo && d < hi) candidates.push_back(d);
    };
    add_candidate(-beta[i]);
    add_candidate(beta[j]);
    if (eta > 1e-12) {
      const double base = -((f[i] - y[i]) - (f[j] - y[j]));
      for (const double si : {-1.0, 1.0}) {
        for (const double sj : {-1.0, 1.0}) {
          add_candidate((base - eps * si + eps * sj) / eta);
        }
      }
    }
    double best_delta = 0.0;
    double best_obj = 0.0;  // objective change of delta = 0
    for (const double d : candidates) {
      const double obj = delta_objective(i, j, d, eta);
      if (obj < best_obj - 1e-15) {
        best_obj = obj;
        best_delta = d;
      }
    }
    if (best_delta == 0.0) {
      // Numerically stuck on this pair; nudge the gap check forward.
      ++passes;
      continue;
    }
    beta[i] += best_delta;
    beta[j] -= best_delta;
    for (std::size_t t = 0; t < n; ++t) {
      f[t] += best_delta * (k(i, t) - k(j, t));
    }
    ++passes;
  }
  final_gap_ = gap;

  // Bias: midpoint of the residual feasible-b interval.
  {
    double max_low = -std::numeric_limits<double>::infinity();
    double min_up = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < n; ++t) {
      const auto [low, up] = b_bounds(t);
      max_low = std::max(max_low, low);
      min_up = std::min(min_up, up);
    }
    if (std::isfinite(max_low) && std::isfinite(min_up)) {
      bias_ = 0.5 * (max_low + min_up);
    } else if (std::isfinite(max_low)) {
      bias_ = max_low;
    } else if (std::isfinite(min_up)) {
      bias_ = min_up;
    } else {
      bias_ = linalg::mean(y);
    }
  }

  // Keep only support vectors.
  std::vector<std::size_t> support;
  for (std::size_t t = 0; t < n; ++t) {
    if (std::abs(beta[t]) > 1e-10) support.push_back(t);
  }
  support_x_ = x.select_rows(support);
  support_beta_.clear();
  support_beta_.reserve(support.size());
  for (const std::size_t t : support) support_beta_.push_back(beta[t]);
  fitted_ = true;
}

Vector SvrRegressor::predict(const Matrix& x) const {
  if (!fitted_) throw std::logic_error("svr: not fitted");
  check_predict_args(name(), n_features_, x);
  Vector out(x.rows(), bias_);
  for (std::size_t q = 0; q < x.rows(); ++q) {
    const auto query = x.row(q);
    double acc = 0.0;
    for (std::size_t s = 0; s < support_x_.rows(); ++s) {
      acc += support_beta_[s] * kernel(support_x_.row(s), query);
    }
    out[q] += acc;
  }
  return out;
}

}  // namespace ffr::ml
