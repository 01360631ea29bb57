// ffr_service: the campaign-and-prediction front end on a mixed workload.
//
// Spins up an FfrService (content-addressed engine registry + async job
// queue), trains and persists a small transfer model, then drives the two
// job classes the service is built for:
//
//   1. campaign jobs   — full fault-injection campaigns; repeated and
//                        concurrent requests on the same (netlist,
//                        testbench) content share one cached golden run,
//                        checkpoint set and compiled stimulus;
//   2. predict jobs    — per-flip-flop FDR from the persisted model; after
//                        the first request on a design, thousands of
//                        predictions run without simulating anything.
//
// Finishes with an eviction demo (a 1-byte registry budget) and the full
// service metrics dump: cache hits/misses, evictions, queue depth, and
// per-job-class latency histograms.
//
//   ./build/examples/ffr_service

#include <cstdio>
#include <filesystem>
#include <vector>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "circuits/pipeline_core.hpp"
#include "core/transfer_flow.hpp"
#include "service/content_hash.hpp"
#include "service/job_queue.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace ffr;

  // Two designs with workload testbenches: the paper's MAC case study and
  // the bundled pipeline core.
  circuits::MacConfig mac_config;
  mac_config.tx_depth_log2 = 4;
  mac_config.rx_depth_log2 = 4;
  const circuits::MacCore mac = circuits::build_mac_core(mac_config);
  const circuits::MacTestbench mac_bench = circuits::build_mac_testbench(mac, {});
  const circuits::PipelineCore pipe = circuits::build_pipeline_core();
  const circuits::PipelineTestbench pipe_bench =
      circuits::build_pipeline_testbench(pipe);
  std::printf("mac      : %s\n", mac.netlist.summary().c_str());
  std::printf("pipeline : %s\n", pipe.netlist.summary().c_str());

  // Train-once/predict-many: persist a transfer model for the predict jobs
  // (in production this file comes from a previous training run).
  core::TransferConfig train_config;
  train_config.model = "knn_paper";
  train_config.injections_per_ff = 32;
  const std::vector<core::TransferCircuit> train_set = {
      {&mac.netlist, &mac_bench.tb}};
  const std::filesystem::path model_path =
      std::filesystem::temp_directory_path() / "ffr_service_demo_model.txt";
  core::train_transfer_model(train_set, train_config).save(model_path);
  std::printf("model    : trained on mac_core, persisted to %s\n\n",
              model_path.string().c_str());

  service::FfrService service;
  // A service-shaped request: a targeted shard of the flip-flops rather than
  // the full sweep, so the engine build the registry caches (stimulus
  // compile + golden run + checkpoints) is a visible share of the cold
  // request.
  fault::CampaignConfig campaign;
  campaign.injections_per_ff = 16;
  for (std::size_t ff = 0; ff < 16 && ff < mac.netlist.num_flip_flops(); ++ff) {
    campaign.ff_subset.push_back(ff);
  }

  // --- Campaign jobs: the second identical request skips the golden run ---
  util::Stopwatch stopwatch;
  const service::JobId first =
      service.submit_campaign(mac.netlist, mac_bench.tb, campaign);
  (void)service.wait(first);
  const double cold_seconds = stopwatch.elapsed_seconds();

  stopwatch.reset();
  const service::JobId second =
      service.submit_campaign(mac.netlist, mac_bench.tb, campaign);
  (void)service.wait(second);
  const double warm_seconds = stopwatch.elapsed_seconds();

  const fault::CampaignResult cold = service.campaign_result(first);
  const fault::CampaignResult warm = service.campaign_result(second);
  std::printf("campaign jobs on mac_core (%zu injections each):\n",
              static_cast<std::size_t>(cold.total_injections));
  std::printf("  cold (build + golden + campaign) : %7.1f ms\n",
              cold_seconds * 1e3);
  std::printf("  warm (cached engine)             : %7.1f ms\n",
              warm_seconds * 1e3);
  std::printf("  identical results                : %s\n",
              cold.fdr_vector() == warm.fdr_vector() ? "yes" : "NO");

  // --- Predict jobs: model serving off the cached golden run -------------
  std::vector<service::JobId> predictions;
  stopwatch.reset();
  for (int i = 0; i < 100; ++i) {
    predictions.push_back(
        service.submit_predict(model_path, pipe.netlist, pipe_bench.tb));
  }
  service.wait_all();
  const double predict_seconds = stopwatch.elapsed_seconds();
  const linalg::Vector fdr = service.prediction(predictions.back());
  double mean = 0.0;
  for (const double v : fdr) mean += v;
  mean /= static_cast<double>(fdr.size());
  std::printf("\n100 predict jobs on pipeline_core: %0.1f ms total "
              "(%zu flip-flops each, mean FDR %.4f)\n",
              predict_seconds * 1e3, fdr.size(), mean);

  // --- Eviction under a byte budget ---------------------------------------
  service::RegistryConfig tiny;
  tiny.max_resident_bytes = 1;
  service::EngineRegistry squeezed(tiny);
  (void)squeezed.acquire(mac.netlist, mac_bench.tb);
  (void)squeezed.acquire(pipe.netlist, pipe_bench.tb);  // evicts the MAC
  std::printf("\n1-byte-budget registry after two acquires: %zu resident\n",
              squeezed.size());
  for (const service::EvictionRecord& ev : squeezed.eviction_log()) {
    std::printf("  evicted %s (key %s, %zu bytes, %llu acquisitions, %s)\n",
                ev.circuit.c_str(), ev.key.hex().c_str(), ev.bytes,
                static_cast<unsigned long long>(ev.acquisitions),
                service::to_string(ev.reason));
  }

  std::printf("\nservice metrics:\n%s", service.metrics().to_text().c_str());
  std::filesystem::remove(model_path);
  return 0;
}
