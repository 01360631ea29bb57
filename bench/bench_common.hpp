#pragma once
// Shared context for the paper-reproduction benches: builds the MAC core and
// its workload testbench at full scale, runs the golden simulation, extracts
// features, and runs the batched statistical fault injection campaign that
// serves as ground truth for every table/figure.
//
// Environment knobs:
//   FFR_INJECTIONS  injections per flip-flop (default 170, the paper's value)
//   FFR_RESULTS_DIR output directory for CSV series (default ./ffr_results)

#include <filesystem>
#include <memory>
#include <string>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "fault/campaign.hpp"
#include "fault/engine.hpp"
#include "features/extractor.hpp"
#include "ml/model_selection.hpp"
#include "sim/runner.hpp"

namespace ffr::bench {

struct PaperContext {
  circuits::MacCore mac;
  circuits::MacTestbench workload;
  /// Shared batched engine over (mac, workload): golden run and compiled
  /// stimulus paid once per process; benches reuse it for campaigns and
  /// estimation-flow sweeps.
  std::unique_ptr<fault::CampaignEngine> engine;
  sim::GoldenResult golden;
  features::FeatureMatrix features;
  fault::CampaignResult campaign;
  linalg::Vector fdr;  // ground-truth targets, one per flip-flop
  std::size_t injections_per_ff = 170;
  std::filesystem::path results_dir;

  [[nodiscard]] std::size_t num_ffs() const { return fdr.size(); }
};

/// Builds (once per process) the full paper context. Prints a short banner
/// with the circuit census and campaign provenance to stdout.
[[nodiscard]] const PaperContext& paper_context();

/// The paper's CV protocol: 10-fold stratified splits over the FDR targets.
[[nodiscard]] std::vector<ml::Split> paper_splits(const PaperContext& ctx,
                                                  std::uint64_t seed = 0xCF);

/// Writes a CSV of named columns into the results dir; returns the path.
std::filesystem::path write_series_csv(
    const PaperContext& ctx, const std::string& filename,
    const std::vector<std::pair<std::string, std::vector<double>>>& columns);

/// Paper Table I reference values, for side-by-side printing.
struct PaperTable1Row {
  const char* model;
  double mae, max, rmse, ev, r2;
};
inline constexpr PaperTable1Row kPaperTable1[] = {
    {"linear_least_squares", 0.165, 0.944, 0.218, 0.520, 0.519},
    {"knn", 0.050, 0.907, 0.124, 0.843, 0.842},
    {"svr_rbf", 0.063, 0.849, 0.124, 0.845, 0.844},
};

}  // namespace ffr::bench
