#pragma once
/// \file estimation_flow.hpp
/// \brief The paper's methodology end-to-end (Fig. 1).
///
/// From a gate-level netlist and its workload testbench: (1) run the golden
/// simulation and extract per-flip-flop features, (2) fault-inject only a
/// *training fraction* of the flip-flops to measure their Functional
/// De-Rating (FDR), (3) train a regression model on (features -> FDR),
/// (4) predict the FDR of every remaining flip-flop. The expensive flat
/// campaign over all flip-flops is what the flow avoids;
/// FlowResult::cost_reduction() quantifies the saving.

#include <cstdint>
#include <filesystem>
#include <string>

#include "fault/campaign.hpp"
#include "fault/engine.hpp"
#include "features/extractor.hpp"
#include "ml/metrics.hpp"
#include "ml/model.hpp"
#include "netlist/netlist.hpp"
#include "sim/runner.hpp"

namespace ffr::core {

/// Tunables of one estimation-flow run. The defaults reproduce the paper's
/// headline configuration (50% training fraction, 170 injections per
/// flip-flop, the tuned k-NN model).
struct FlowConfig {
  /// Fraction of flip-flops that receive fault injection (paper: 0.2-0.5).
  double training_size = 0.5;
  /// Single-event upsets injected per training flip-flop (paper: 170).
  std::size_t injections_per_ff = 170;
  /// Zoo name of the regression model (see ml::make_model).
  std::string model = "knn_paper";
  /// Seed for the train/predict split and injection schedules; the flow is
  /// fully deterministic for a fixed config.
  std::uint64_t seed = 0xF10F;
  /// Worker threads for the campaign; 0 = hardware concurrency.
  std::size_t num_threads = 0;
};

/// Everything a flow run produces: the feature matrix, the train/predict
/// partition, measured and predicted FDR vectors, and cost/time accounting.
struct FlowResult {
  features::FeatureMatrix features;
  /// Flip-flop indices (into Netlist::flip_flops()) that were fault-injected.
  std::vector<std::size_t> train_indices;
  std::vector<bool> is_train;  // per flip-flop
  /// Measured FDR for the training subset (aligned with train_indices).
  linalg::Vector train_fdr;
  /// Final per-flip-flop FDR: measured where injected, predicted elsewhere.
  linalg::Vector fdr;
  /// Raw model predictions for all flip-flops (diagnostics).
  linalg::Vector predicted_fdr;

  /// Non-fatal diagnostics surfaced from the training campaign (see
  /// CampaignResult::warnings), e.g. a lane-width fallback on this host.
  std::vector<std::string> warnings;

  std::uint64_t injections_spent = 0;
  double golden_seconds = 0.0;
  double campaign_seconds = 0.0;
  double training_seconds = 0.0;

  /// \return Injections a full flat campaign would have needed divided by
  ///         injections actually spent (the paper's cost-saving headline);
  ///         0 when nothing was injected.
  [[nodiscard]] double cost_reduction() const noexcept {
    return injections_spent == 0
               ? 0.0
               : static_cast<double>(injections_full) /
                     static_cast<double>(injections_spent);
  }
  std::uint64_t injections_full = 0;

  /// \return Circuit-level mean FDR estimate (unweighted over flip-flops).
  [[nodiscard]] double mean_fdr() const;
};

/// Runs the flow end-to-end. Deterministic for a given config.
///
/// The engine behind this overload comes from the process-wide
/// service::default_engine_registry(): repeated calls on content-identical
/// (netlist, testbench) pairs — even distinct copies, from any thread —
/// share one golden run, checkpoint set and compiled stimulus. Results are
/// unaffected (the cached engine is built from a structurally identical
/// copy); only golden_seconds shrinks on a cache hit.
///
/// \param nl     Finalized gate-level netlist to analyse.
/// \param tb     Workload testbench driving the golden run and campaign.
/// \param config Flow tunables; defaults reproduce the paper's setup.
/// \return Per-flip-flop FDR estimates plus cost/time accounting.
/// \throws std::invalid_argument on an empty netlist, a training fraction
///         outside (0, 1], or an unknown model name.
[[nodiscard]] FlowResult run_estimation_flow(const netlist::Netlist& nl,
                                             const sim::Testbench& tb,
                                             const FlowConfig& config = {});

/// Runs the flow on a prebuilt CampaignEngine, reusing its cached golden run
/// (frames + activity trace) and compiled stimulus across invocations —
/// sweeping flow configurations on one (netlist, testbench) pair pays the
/// golden-simulation cost once instead of once per call. The campaign itself
/// uses the engine's batched path. Numerically identical to the
/// (netlist, testbench) overload for the same config; with a prebuilt engine
/// golden_seconds covers only feature extraction, since the golden run is
/// amortized.
[[nodiscard]] FlowResult run_estimation_flow(const fault::CampaignEngine& engine,
                                             const FlowConfig& config = {});

/// Scores a flow result against a reference full campaign.
///
/// Metrics are computed only on the flip-flops the flow did NOT inject
/// (i.e. its actual predictions), matching the paper's evaluation protocol.
///
/// \param flow      Result of run_estimation_flow().
/// \param reference A full-circuit campaign in Netlist::flip_flops() order.
/// \return The paper's regression metrics (MAE, MAX, RMSE, EV, R²).
[[nodiscard]] ml::RegressionMetrics score_against_campaign(
    const FlowResult& flow, const fault::CampaignResult& reference);

}  // namespace ffr::core
