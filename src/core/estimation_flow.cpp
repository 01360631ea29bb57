#include "core/estimation_flow.hpp"

#include <algorithm>
#include <cmath>

#include "ml/model_zoo.hpp"
#include "service/engine_registry.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace ffr::core {

double FlowResult::mean_fdr() const {
  if (fdr.empty()) return 0.0;
  return linalg::mean(fdr);
}

FlowResult run_estimation_flow(const netlist::Netlist& nl, const sim::Testbench& tb,
                               const FlowConfig& config) {
  // Keep this overload's golden_seconds semantics: the golden run happens
  // inside the engine build (on a registry miss), so time the acquire and
  // fold it back in. On a hit the golden run is already paid for and
  // golden_seconds shrinks to feature extraction plus the cache lookup.
  util::Stopwatch stopwatch;
  const std::shared_ptr<const fault::CampaignEngine> engine =
      service::default_engine_registry().acquire(nl, tb);
  const double golden_seconds = stopwatch.elapsed_seconds();
  FlowResult result = run_estimation_flow(*engine, config);
  result.golden_seconds += golden_seconds;
  return result;
}

FlowResult run_estimation_flow(const fault::CampaignEngine& engine,
                               const FlowConfig& config) {
  if (config.training_size <= 0.0 || config.training_size > 1.0) {
    throw std::invalid_argument("run_estimation_flow: training_size in (0, 1]");
  }
  const netlist::Netlist& nl = engine.netlist();
  const std::size_t n = nl.num_flip_flops();
  if (n == 0) throw std::invalid_argument("run_estimation_flow: no flip-flops");

  FlowResult result;
  util::Stopwatch stopwatch;

  // (1) Golden run: reference frames + signal activity (cached on the
  // engine — free after the first flow invocation); then features.
  const sim::GoldenResult& golden = engine.golden();
  result.features = features::extract_features(nl, golden.activity);
  result.golden_seconds = stopwatch.elapsed_seconds();

  // (2) Statistical fault injection on a random training subset.
  util::Rng rng(config.seed);
  const auto n_train = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::round(config.training_size * static_cast<double>(n))));
  result.train_indices = rng.sample_without_replacement(n, std::min(n_train, n));
  std::sort(result.train_indices.begin(), result.train_indices.end());
  result.is_train.assign(n, false);
  for (const std::size_t i : result.train_indices) result.is_train[i] = true;

  stopwatch.reset();
  fault::CampaignConfig campaign_config;
  campaign_config.injections_per_ff = config.injections_per_ff;
  campaign_config.seed = config.seed;
  campaign_config.num_threads = config.num_threads;
  campaign_config.ff_subset = result.train_indices;
  const fault::CampaignResult campaign = engine.run(campaign_config);
  result.campaign_seconds = stopwatch.elapsed_seconds();
  result.train_fdr = campaign.fdr_vector();
  result.injections_spent = campaign.total_injections;
  result.warnings = campaign.warnings;
  result.injections_full =
      static_cast<std::uint64_t>(n) * config.injections_per_ff;

  // (3) Train the regression model on (features, measured FDR).
  stopwatch.reset();
  const linalg::Matrix x_train =
      result.features.values.select_rows(result.train_indices);
  std::unique_ptr<ml::Regressor> model = ml::make_model(config.model);
  model->fit(x_train, result.train_fdr);

  // (4) Predict every flip-flop; splice measured values for the train set.
  result.predicted_fdr = model->predict(result.features.values);
  result.fdr = result.predicted_fdr;
  for (std::size_t t = 0; t < result.train_indices.size(); ++t) {
    result.fdr[result.train_indices[t]] = result.train_fdr[t];
  }
  // FDR is a probability: clamp model extrapolations into [0, 1].
  for (double& v : result.fdr) v = std::clamp(v, 0.0, 1.0);
  result.training_seconds = stopwatch.elapsed_seconds();
  return result;
}

ml::RegressionMetrics score_against_campaign(const FlowResult& flow,
                                             const fault::CampaignResult& reference) {
  if (reference.per_ff.size() != flow.is_train.size()) {
    throw std::invalid_argument(
        "score_against_campaign: reference must cover all flip-flops");
  }
  const linalg::Vector reference_fdr = reference.fdr_vector();
  linalg::Vector y_true;
  linalg::Vector y_pred;
  for (std::size_t i = 0; i < flow.is_train.size(); ++i) {
    if (flow.is_train[i]) continue;
    y_true.push_back(reference_fdr[i]);
    y_pred.push_back(flow.fdr[i]);
  }
  if (y_true.empty()) {
    throw std::invalid_argument("score_against_campaign: nothing held out");
  }
  return ml::compute_metrics(y_true, y_pred);
}

}  // namespace ffr::core
