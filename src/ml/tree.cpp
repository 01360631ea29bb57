#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>

#include "ml/serialize.hpp"

namespace ffr::ml {

namespace {

void write_tree_config(std::ostream& os, const TreeConfig& config) {
  os << "tree_config " << config.max_depth << ' ' << config.min_samples_split
     << ' ' << config.min_samples_leaf << ' ' << config.max_features << ' '
     << config.seed << '\n';
}

TreeConfig read_tree_config(const util::TokenReader& r) {
  r.expect("tree_config");
  TreeConfig config;
  config.max_depth = static_cast<std::size_t>(r.u64(io::kMaxCount));
  config.min_samples_split = static_cast<std::size_t>(r.u64(io::kMaxCount));
  config.min_samples_leaf = static_cast<std::size_t>(r.u64(io::kMaxCount));
  config.max_features = static_cast<std::size_t>(r.u64(io::kMaxCount));
  config.seed = r.u64();
  return config;
}

/// Reads a nested full model block and requires it to be a decision tree.
DecisionTreeRegressor load_nested_tree(const util::TokenReader& r) {
  r.expect_header("ffr-model", kModelFormatVersion);
  r.expect("decision_tree");
  return std::move(*DecisionTreeRegressor::load_body(r));
}

}  // namespace

// ---- DecisionTreeRegressor ---------------------------------------------------

DecisionTreeRegressor::DecisionTreeRegressor(TreeConfig config) : config_(config) {
  if (config.max_depth == 0) throw std::invalid_argument("tree: max_depth >= 1");
  if (config.min_samples_leaf == 0) {
    throw std::invalid_argument("tree: min_samples_leaf >= 1");
  }
}

void DecisionTreeRegressor::set_params(const ParamMap& params) {
  for (const auto& [key, value] : params) {
    if (key == "max_depth") {
      config_.max_depth = static_cast<std::size_t>(value);
    } else if (key == "min_samples_split") {
      config_.min_samples_split = static_cast<std::size_t>(value);
    } else if (key == "min_samples_leaf") {
      config_.min_samples_leaf = static_cast<std::size_t>(value);
    } else if (key == "max_features") {
      config_.max_features = static_cast<std::size_t>(value);
    } else if (key == "seed") {
      config_.seed = static_cast<std::uint64_t>(value);
    } else {
      throw std::invalid_argument("tree: unknown parameter '" + key + "'");
    }
  }
}

ParamMap DecisionTreeRegressor::get_params() const {
  return {{"max_depth", static_cast<double>(config_.max_depth)},
          {"min_samples_split", static_cast<double>(config_.min_samples_split)},
          {"min_samples_leaf", static_cast<double>(config_.min_samples_leaf)},
          {"max_features", static_cast<double>(config_.max_features)},
          {"seed", static_cast<double>(config_.seed)}};
}

void DecisionTreeRegressor::fit(const Matrix& x, std::span<const double> y) {
  check_fit_args(x, y);
  std::vector<std::size_t> indices(x.rows());
  std::iota(indices.begin(), indices.end(), 0);
  fit_on_indices(x, y, indices);
}

void DecisionTreeRegressor::fit_on_indices(const Matrix& x,
                                           std::span<const double> y,
                                           std::span<const std::size_t> indices) {
  if (indices.empty()) throw std::invalid_argument("tree: empty index set");
  nodes_.clear();
  depth_ = 0;
  n_features_ = x.cols();
  std::vector<std::size_t> work(indices.begin(), indices.end());
  util::Rng rng(config_.seed);
  (void)build(x, y, work, 0, work.size(), 1, rng);
}

std::uint32_t DecisionTreeRegressor::build(const Matrix& x,
                                           std::span<const double> y,
                                           std::vector<std::size_t>& indices,
                                           std::size_t begin, std::size_t end,
                                           std::size_t depth, util::Rng& rng) {
  depth_ = std::max(depth_, depth);
  const std::size_t count = end - begin;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const double v = y[indices[i]];
    sum += v;
    sum_sq += v * v;
  }
  const double node_mean = sum / static_cast<double>(count);
  const double node_sse = sum_sq - sum * node_mean;

  const auto make_leaf = [&] {
    Node leaf;
    leaf.value = node_mean;
    nodes_.push_back(leaf);
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  };
  if (depth >= config_.max_depth || count < config_.min_samples_split ||
      count < 2 * config_.min_samples_leaf || node_sse <= 1e-12) {
    return make_leaf();
  }

  // Candidate features (all, or a random subset for forests).
  std::vector<std::size_t> features(n_features_);
  std::iota(features.begin(), features.end(), 0);
  if (config_.max_features != 0 && config_.max_features < n_features_) {
    rng.shuffle(features);
    features.resize(config_.max_features);
  }

  // Best split = max SSE reduction, found by sorting per candidate feature.
  double best_gain = 1e-12;
  std::size_t best_feature = n_features_;
  double best_threshold = 0.0;
  std::vector<std::pair<double, double>> sorted(count);  // (x_f, y)
  for (const std::size_t f : features) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t row = indices[begin + i];
      sorted[i] = {x(row, f), y[row]};
    }
    std::sort(sorted.begin(), sorted.end());
    double left_sum = 0.0;
    double left_sq = 0.0;
    for (std::size_t i = 0; i + 1 < count; ++i) {
      left_sum += sorted[i].second;
      left_sq += sorted[i].second * sorted[i].second;
      if (sorted[i].first == sorted[i + 1].first) continue;  // no cut here
      const std::size_t left_n = i + 1;
      const std::size_t right_n = count - left_n;
      if (left_n < config_.min_samples_leaf || right_n < config_.min_samples_leaf) {
        continue;
      }
      const double right_sum = sum - left_sum;
      const double right_sq = sum_sq - left_sq;
      const double left_sse = left_sq - left_sum * left_sum / static_cast<double>(left_n);
      const double right_sse =
          right_sq - right_sum * right_sum / static_cast<double>(right_n);
      const double gain = node_sse - left_sse - right_sse;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
      }
    }
  }
  if (best_feature == n_features_) return make_leaf();

  // Partition indices in place.
  const auto middle = std::partition(
      indices.begin() + static_cast<long>(begin),
      indices.begin() + static_cast<long>(end),
      [&](std::size_t row) { return x(row, best_feature) <= best_threshold; });
  const std::size_t split =
      static_cast<std::size_t>(middle - indices.begin());
  if (split == begin || split == end) return make_leaf();  // numeric safety

  Node node;
  node.feature = static_cast<std::uint32_t>(best_feature);
  node.threshold = best_threshold;
  nodes_.push_back(node);
  const auto node_id = static_cast<std::uint32_t>(nodes_.size() - 1);
  const std::uint32_t left = build(x, y, indices, begin, split, depth + 1, rng);
  const std::uint32_t right = build(x, y, indices, split, end, depth + 1, rng);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

double DecisionTreeRegressor::predict_row(std::span<const double> row) const {
  std::uint32_t node_id = 0;
  for (;;) {
    const Node& node = nodes_[node_id];
    if (node.feature == Node::kLeaf) return node.value;
    node_id = row[node.feature] <= node.threshold ? node.left : node.right;
  }
}

Vector DecisionTreeRegressor::predict(const Matrix& x) const {
  if (!is_fitted()) throw std::logic_error("tree: not fitted");
  check_predict_args(name(), n_features_, x);
  Vector out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out[r] = predict_row(x.row(r));
  return out;
}

void DecisionTreeRegressor::save(std::ostream& os) const {
  if (!is_fitted()) throw std::logic_error("decision_tree save: not fitted");
  io::write_header(os, "decision_tree");
  write_tree_config(os, config_);
  os << "n_features " << n_features_ << "\ndepth " << depth_ << "\nnodes "
     << nodes_.size() << '\n';
  for (const Node& node : nodes_) {
    os << node.feature << ' ';
    util::write_double(os, node.threshold);
    os << ' ' << node.left << ' ' << node.right << ' ';
    util::write_double(os, node.value);
    os << '\n';
  }
  os << "end\n";
}

std::unique_ptr<DecisionTreeRegressor> DecisionTreeRegressor::load_body(
    const util::TokenReader& r) {
  auto model = std::make_unique<DecisionTreeRegressor>(read_tree_config(r));
  r.expect("n_features");
  model->n_features_ = static_cast<std::size_t>(r.u64(io::kMaxCount));
  r.expect("depth");
  model->depth_ = static_cast<std::size_t>(r.u64(io::kMaxCount));
  r.expect("nodes");
  const auto count = static_cast<std::size_t>(r.u64(io::kMaxCount));
  for (std::size_t i = 0; i < count; ++i) {
    Node node;
    node.feature = static_cast<std::uint32_t>(r.u64(~std::uint32_t{0}));
    node.threshold = r.dbl();
    node.left = static_cast<std::uint32_t>(r.u64(~std::uint32_t{0}));
    node.right = static_cast<std::uint32_t>(r.u64(~std::uint32_t{0}));
    node.value = r.dbl();
    // build() always emits children after their parent, so forward-only
    // child links also guarantee predict() terminates on any loaded file.
    if (node.feature != Node::kLeaf &&
        (node.feature >= model->n_features_ || node.left <= i ||
         node.left >= count || node.right <= i || node.right >= count)) {
      r.fail("decision_tree node " + std::to_string(i) +
             " references an out-of-range feature or child");
    }
    model->nodes_.push_back(node);
  }
  r.expect("end");
  return model;
}

// ---- RandomForestRegressor ---------------------------------------------------

RandomForestRegressor::RandomForestRegressor(ForestConfig config)
    : config_(config) {
  if (config.n_estimators == 0) {
    throw std::invalid_argument("forest: n_estimators >= 1");
  }
}

void RandomForestRegressor::set_params(const ParamMap& params) {
  for (const auto& [key, value] : params) {
    if (key == "n_estimators") {
      config_.n_estimators = static_cast<std::size_t>(value);
    } else if (key == "max_depth") {
      config_.tree.max_depth = static_cast<std::size_t>(value);
    } else if (key == "max_features_frac") {
      config_.max_features_frac = value;
    } else if (key == "seed") {
      config_.seed = static_cast<std::uint64_t>(value);
    } else {
      throw std::invalid_argument("forest: unknown parameter '" + key + "'");
    }
  }
}

ParamMap RandomForestRegressor::get_params() const {
  return {{"n_estimators", static_cast<double>(config_.n_estimators)},
          {"max_depth", static_cast<double>(config_.tree.max_depth)},
          {"max_features_frac", config_.max_features_frac},
          {"seed", static_cast<double>(config_.seed)}};
}

void RandomForestRegressor::fit(const Matrix& x, std::span<const double> y) {
  check_fit_args(x, y);
  trees_.clear();
  util::Rng rng(config_.seed);
  const auto max_features = static_cast<std::size_t>(
      std::max(1.0, std::round(config_.max_features_frac *
                               static_cast<double>(x.cols()))));
  for (std::size_t t = 0; t < config_.n_estimators; ++t) {
    TreeConfig tree_config = config_.tree;
    tree_config.max_features = std::min(max_features, x.cols());
    tree_config.seed = rng();
    DecisionTreeRegressor tree(tree_config);
    // Bootstrap sample.
    std::vector<std::size_t> sample(x.rows());
    for (auto& s : sample) s = static_cast<std::size_t>(rng.below(x.rows()));
    tree.fit_on_indices(x, y, sample);
    trees_.push_back(std::move(tree));
  }
}

void RandomForestRegressor::save(std::ostream& os) const {
  if (!is_fitted()) throw std::logic_error("random_forest save: not fitted");
  io::write_header(os, "random_forest");
  os << "config " << config_.n_estimators << ' ';
  util::write_double(os, config_.max_features_frac);
  os << ' ' << config_.seed << '\n';
  write_tree_config(os, config_.tree);
  os << "trees " << trees_.size() << '\n';
  for (const auto& tree : trees_) tree.save(os);
  os << "end\n";
}

std::unique_ptr<RandomForestRegressor> RandomForestRegressor::load_body(
    const util::TokenReader& r) {
  r.expect("config");
  ForestConfig config;
  config.n_estimators = static_cast<std::size_t>(r.u64(io::kMaxCount));
  config.max_features_frac = r.dbl();
  config.seed = r.u64();
  config.tree = read_tree_config(r);
  auto model = std::make_unique<RandomForestRegressor>(config);
  r.expect("trees");
  const auto count = static_cast<std::size_t>(r.u64(io::kMaxCount));
  if (count == 0) {
    r.fail("random_forest with no trees");
  }
  for (std::size_t i = 0; i < count; ++i) {
    model->trees_.push_back(load_nested_tree(r));
  }
  r.expect("end");
  return model;
}

Vector RandomForestRegressor::predict(const Matrix& x) const {
  if (!is_fitted()) throw std::logic_error("forest: not fitted");
  check_predict_args(name(), trees_.front().num_features(), x);
  Vector out(x.rows(), 0.0);
  for (const auto& tree : trees_) {
    const Vector pred = tree.predict(x);
    for (std::size_t r = 0; r < x.rows(); ++r) out[r] += pred[r];
  }
  for (auto& v : out) v /= static_cast<double>(trees_.size());
  return out;
}

// ---- GradientBoostingRegressor ------------------------------------------------

GradientBoostingRegressor::GradientBoostingRegressor(BoostingConfig config)
    : config_(config) {
  if (config.n_estimators == 0) {
    throw std::invalid_argument("gbr: n_estimators >= 1");
  }
  if (config.learning_rate <= 0.0 || config.learning_rate > 1.0) {
    throw std::invalid_argument("gbr: learning_rate in (0, 1]");
  }
}

void GradientBoostingRegressor::set_params(const ParamMap& params) {
  for (const auto& [key, value] : params) {
    if (key == "n_estimators") {
      config_.n_estimators = static_cast<std::size_t>(value);
    } else if (key == "learning_rate") {
      config_.learning_rate = value;
    } else if (key == "max_depth") {
      config_.tree.max_depth = static_cast<std::size_t>(value);
    } else {
      throw std::invalid_argument("gbr: unknown parameter '" + key + "'");
    }
  }
}

ParamMap GradientBoostingRegressor::get_params() const {
  return {{"n_estimators", static_cast<double>(config_.n_estimators)},
          {"learning_rate", config_.learning_rate},
          {"max_depth", static_cast<double>(config_.tree.max_depth)}};
}

void GradientBoostingRegressor::fit(const Matrix& x, std::span<const double> y) {
  check_fit_args(x, y);
  trees_.clear();
  base_prediction_ = linalg::mean(y);
  Vector residual(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - base_prediction_;
  for (std::size_t t = 0; t < config_.n_estimators; ++t) {
    DecisionTreeRegressor tree(config_.tree);
    tree.fit(x, residual);
    const Vector step = tree.predict(x);
    for (std::size_t i = 0; i < residual.size(); ++i) {
      residual[i] -= config_.learning_rate * step[i];
    }
    trees_.push_back(std::move(tree));
  }
  fitted_ = true;
}

void GradientBoostingRegressor::save(std::ostream& os) const {
  if (!fitted_) throw std::logic_error("gradient_boosting save: not fitted");
  io::write_header(os, "gradient_boosting");
  os << "config " << config_.n_estimators << ' ';
  util::write_double(os, config_.learning_rate);
  os << ' ' << config_.seed << '\n';
  write_tree_config(os, config_.tree);
  os << "base ";
  util::write_double(os, base_prediction_);
  os << "\ntrees " << trees_.size() << '\n';
  for (const auto& tree : trees_) tree.save(os);
  os << "end\n";
}

std::unique_ptr<GradientBoostingRegressor> GradientBoostingRegressor::load_body(
    const util::TokenReader& r) {
  r.expect("config");
  BoostingConfig config;
  config.n_estimators = static_cast<std::size_t>(r.u64(io::kMaxCount));
  config.learning_rate = r.dbl();
  config.seed = r.u64();
  config.tree = read_tree_config(r);
  auto model = std::make_unique<GradientBoostingRegressor>(config);
  r.expect("base");
  model->base_prediction_ = r.dbl();
  r.expect("trees");
  const auto count = static_cast<std::size_t>(r.u64(io::kMaxCount));
  if (count == 0) {
    r.fail("gradient_boosting with no trees");
  }
  for (std::size_t i = 0; i < count; ++i) {
    model->trees_.push_back(load_nested_tree(r));
  }
  r.expect("end");
  model->fitted_ = true;
  return model;
}

Vector GradientBoostingRegressor::predict(const Matrix& x) const {
  if (!fitted_) throw std::logic_error("gbr: not fitted");
  // fitted_ implies >= 1 trees: the constructor requires n_estimators >= 1
  // and load_body rejects zero-tree files.
  check_predict_args(name(), trees_.front().num_features(), x);
  Vector out(x.rows(), base_prediction_);
  for (const auto& tree : trees_) {
    const Vector step = tree.predict(x);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      out[r] += config_.learning_rate * step[r];
    }
  }
  return out;
}

}  // namespace ffr::ml
