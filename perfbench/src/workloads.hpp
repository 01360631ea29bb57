#pragma once
// The benchmark's workloads and the traced layer walk they share.

#include <filesystem>
#include <string>

#include "common.hpp"
#include "core/estimation_flow.hpp"
#include "linalg/matrix.hpp"
#include "netlist/netlist.hpp"
#include "sim/testbench.hpp"

namespace perfbench {

/// Paper-scale SFI campaign on relay_core, engine built once, run repeated.
[[nodiscard]] Report run_relay_campaign(const Options& options, Tracer& tracer);
/// Cold Fig. 1 estimation flow on mac_core, registry cleared before each call.
[[nodiscard]] Report run_mac_flow(const Options& options, Tracer& tracer);
/// Closed-loop predict/campaign request mix against one FfrService.
[[nodiscard]] Report run_service_mix(const Options& options, Tracer& tracer);

/// One design the traced layer walk exercises.
struct WalkInput {
  const ffr::netlist::Netlist* netlist = nullptr;
  const ffr::sim::Testbench* testbench = nullptr;
  ffr::core::FlowConfig flow;
  /// Full-campaign FDR, used to train the walk's transfer model when
  /// `model_path` is empty.
  ffr::linalg::Vector fdr;
  std::filesystem::path model_path;
  /// Run a small FfrService round (8 predicts + 8 campaigns).
  bool service_round = true;
};

/// Traced run only: makes each listed public call once, directly, on the
/// workload's own design — content_hash, registry acquire (cold, then warm),
/// engine build, extract_features, the flow, its training campaign, fit and
/// predict, optionally a service round — then the relay_core block sweep
/// (blocks_per_pass 1/2/4/8 at native width). Fills every per-layer metric
/// the workload's own spans left open.
void walk_layers(const WalkInput& input, const Options& options, Tracer& tracer,
                 Report& report);

/// Removes a file on scope exit (the benchmark's model files).
struct TempFile {
  std::filesystem::path path;
  explicit TempFile(std::filesystem::path p) : path(std::move(p)) {}
  ~TempFile() {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
};

/// Unique scratch file name under the output directory.
[[nodiscard]] std::filesystem::path scratch_file(const Options& options,
                                                 const std::string& stem);

}  // namespace perfbench
