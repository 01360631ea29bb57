#pragma once
/// \file transfer_flow.hpp
/// \brief Cross-circuit transfer serving: train once on N (netlist,
/// testbench) pairs, persist the model, predict any unseen circuit.
///
/// The estimation flow (estimation_flow.hpp) amortizes fault injection
/// *within* one circuit; the transfer flow amortizes it *across* circuits.
/// Training fault-injects each training circuit once, normalizes each
/// circuit's feature matrix against its own statistics
/// (features::DomainScaler — the step that makes feature scales comparable
/// across designs), stacks the rows and fits one regression model. The
/// resulting TransferModel predicts the per-flip-flop FDR of a circuit it
/// has never seen from a golden simulation alone — no fault injection on
/// the target — and persists to disk in a versioned text format, so the
/// expensive training campaigns run once while the model serves many
/// designs (see examples/cross_circuit and bench/bench_transfer.cpp).

#include <filesystem>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "features/domain_scaler.hpp"
#include "features/extractor.hpp"
#include "ml/model.hpp"
#include "netlist/netlist.hpp"
#include "sim/testbench.hpp"
#include "util/token_reader.hpp"

namespace ffr::core {

/// One training design: a finalized netlist plus the workload testbench
/// that drives its golden run and fault-injection campaign. Both must
/// outlive the train_transfer_model() call.
struct TransferCircuit {
  const netlist::Netlist* netlist = nullptr;
  const sim::Testbench* testbench = nullptr;
};

/// One training circuit's gathered data, for callers that already ran the
/// campaign (benches reuse one campaign as both training labels and ground
/// truth). `features` holds raw, un-normalized values; the trainer applies
/// the domain scaler.
struct TransferSample {
  std::string name;                   ///< Circuit name (provenance only).
  features::FeatureMatrix features;   ///< Raw per-flip-flop features.
  linalg::Vector fdr;                 ///< Measured FDR, one per flip-flop.
};

/// Tunables of transfer training. Defaults: the paper's tuned k-NN and its
/// 170 injections per flip-flop, the default transfer normalizations.
struct TransferConfig {
  /// Zoo name of the regression model (see ml::make_model).
  std::string model = "knn_paper";
  /// Single-event upsets per flip-flop in each training campaign.
  std::size_t injections_per_ff = 170;
  /// Seed for the training campaigns' injection schedules.
  std::uint64_t seed = 0xF10F;
  /// Worker threads for the campaigns; 0 = hardware concurrency.
  std::size_t num_threads = 0;
  /// Per-feature normalization (empty = features::default_transfer_norms()).
  features::DomainScalerConfig norms;
};

/// Per-circuit accounting of one transfer training run.
struct TransferTrainStats {
  std::string circuit;                 ///< Netlist name.
  std::size_t rows = 0;                ///< Flip-flops contributed.
  std::uint64_t injections = 0;        ///< Upsets spent on this circuit.
  double campaign_seconds = 0.0;       ///< Campaign wall-clock time.
};

/// A trained, serializable cross-circuit FDR predictor: the fitted
/// regression model plus the domain-scaler configuration every prediction
/// must replicate. Obtain one from train_transfer_model() or load().
class TransferModel {
 public:
  /// Predicts per-flip-flop FDR for an unseen circuit from a golden
  /// simulation alone (no fault injection): runs the testbench, extracts
  /// features, normalizes them against this circuit's own statistics and
  /// applies the model. Order follows Netlist::flip_flops().
  [[nodiscard]] linalg::Vector predict(const netlist::Netlist& nl,
                                       const sim::Testbench& tb) const;

  /// Predicts from an already-extracted raw feature matrix (normalization
  /// still happens here — pass raw features, not standardized ones).
  [[nodiscard]] linalg::Vector predict(
      const features::FeatureMatrix& features) const;

  /// Writes the model in the versioned `ffr-transfer` text format
  /// (util/token_reader.hpp token rules): the header `ffr-transfer 1`,
  /// `model_name <name>`, `circuits <n> <names...>`, `rows <n>`,
  /// `norms <n> <modes...>`, the nested fitted model block (serialize.hpp
  /// format) and `end`.
  void save(std::ostream& os) const;
  /// save() into a new file at `path`.
  /// \throws std::runtime_error when the file cannot be opened.
  void save(const std::filesystem::path& path) const;

  /// Reads a model written by save().
  /// \throws std::runtime_error positioned as
  ///         `TransferModel::load: <what> (at byte N)` on bad magic/version
  ///         or a corrupt body.
  [[nodiscard]] static TransferModel load(std::istream& is);
  /// load() from the file at `path`; errors name the path.
  /// \throws std::runtime_error when the file cannot be opened or is corrupt.
  [[nodiscard]] static TransferModel load(const std::filesystem::path& path);

  /// \return The fitted regression model.
  [[nodiscard]] const ml::Regressor& model() const noexcept { return *model_; }
  /// \return The zoo name the model was built from (e.g. "knn_paper").
  [[nodiscard]] const std::string& model_name() const noexcept {
    return model_name_;
  }
  /// \return Names of the circuits the model was trained on.
  [[nodiscard]] const std::vector<std::string>& train_circuits() const noexcept {
    return train_circuits_;
  }
  /// \return Total training rows (flip-flops) across all circuits.
  [[nodiscard]] std::size_t train_rows() const noexcept { return train_rows_; }
  /// \return The per-column normalizations applied before fit and predict.
  [[nodiscard]] const features::DomainScalerConfig& norms() const noexcept {
    return norms_;
  }

 private:
  friend TransferModel train_transfer_model(
      std::span<const TransferSample> samples, const TransferConfig& config);

  TransferModel() = default;

  /// The body of both load() overloads.
  static TransferModel read(const util::TokenReader& r);

  std::unique_ptr<ml::Regressor> model_;
  features::DomainScalerConfig norms_;
  std::string model_name_;
  std::vector<std::string> train_circuits_;
  std::size_t train_rows_ = 0;
};

/// Gathers one circuit's transfer-training data: runs the golden simulation
/// and one batched campaign (fault::CampaignEngine) with the config's
/// injection knobs, and extracts the raw feature matrix. This is the
/// per-circuit building block of the circuit-based train_transfer_model
/// overload, exposed so examples, benches and tests measure exactly the
/// pipeline the flow trains on. `stats`, when non-null, receives the cost
/// accounting.
[[nodiscard]] TransferSample gather_transfer_sample(
    const netlist::Netlist& nl, const sim::Testbench& tb,
    const TransferConfig& config = {}, TransferTrainStats* stats = nullptr);

/// Trains a TransferModel from pre-gathered per-circuit samples: each
/// circuit's features are domain-normalized against that circuit's own
/// statistics, rows are stacked and the configured model is fitted once.
/// \throws std::invalid_argument on empty input, an unknown model name, a
///         feature/label row mismatch, or inconsistent feature counts.
[[nodiscard]] TransferModel train_transfer_model(
    std::span<const TransferSample> samples, const TransferConfig& config = {});

/// End-to-end training: for every circuit, runs the golden simulation and a
/// full fault-injection campaign (the batched CampaignEngine), extracts
/// features, then delegates to the sample-based overload. `stats`, when
/// non-null, receives per-circuit cost accounting.
/// \throws std::invalid_argument on empty input, null pointers, zero
///         injections, or an unknown model name.
[[nodiscard]] TransferModel train_transfer_model(
    std::span<const TransferCircuit> circuits, const TransferConfig& config = {},
    std::vector<TransferTrainStats>* stats = nullptr);

}  // namespace ffr::core
