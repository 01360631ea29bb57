// Repeated-request benchmark for the service layer: the content-addressed
// engine registry must make the second identical campaign request skip the
// golden-run/engine build entirely (cache hit counter >= 1), dropping its
// wall time to the campaign alone — a small fraction of the cold request
// for realistic "short campaign on a big design" service traffic. Also
// measures predict-job serving throughput: after the first request on a
// design, a predict is a content hash plus lookups in the registry (the
// entry memoizes its prediction per model — no simulation, no feature
// extraction, no model application), and feature-matrix predictions never
// construct an engine at all. A cold stream of one-shot pipeline_core
// testbenches interleaved with warm MAC predicts exercises the registry's
// probation slice. Exits non-zero when a warm request misses the cache,
// when the cached-predict burst computes more predictions than there are
// workers (each worker computes at most once before the memo lands), when
// feature-matrix predicts build an engine, or when the cold stream rebuilds
// the warm MAC entry or leaves more than the probation slice of one-shot
// entries resident. Emits BENCH_service.json.
//
// The campaign scenario is service-shaped: a long workload trace whose
// requests probe the drain phase (the last 512 cycles), so checkpointed
// replay starts late and the golden prefix — the part the registry caches —
// dominates the cold request.
//
// Environment knobs:
//   FFR_SERVICE_FRAMES       workload frames in the testbench (default 80)
//   FFR_SERVICE_REQUEST_FFS  flip-flops per campaign request (default 8)
//   FFR_SERVICE_INJECTIONS   injections per flip-flop (default 16)
//   FFR_SERVICE_FF_OFFSET    first flip-flop of the request subset (default 0)
//   FFR_SERVICE_PREDICTS     predict jobs in the serving burst (default 100)
//   FFR_SERVICE_COLD         one-shot testbenches in the cold stream (default 200)

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "circuits/pipeline_core.hpp"
#include "core/transfer_flow.hpp"
#include "features/extractor.hpp"
#include "service/job_queue.hpp"
#include "sim/runner.hpp"
#include "util/stopwatch.hpp"
#include "util/table_printer.hpp"

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? static_cast<std::size_t>(std::atoll(value)) : fallback;
}

struct Row {
  std::string phase;
  std::size_t jobs = 0;
  double wall_seconds = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t engine_builds = 0;
};

}  // namespace

int main() {
  using namespace ffr;

  const std::size_t request_ffs = env_size("FFR_SERVICE_REQUEST_FFS", 8);
  const std::size_t num_predicts = env_size("FFR_SERVICE_PREDICTS", 100);
  const std::size_t num_cold = env_size("FFR_SERVICE_COLD", 200);

  const circuits::MacCore mac = circuits::build_mac_core();
  circuits::MacTestbenchConfig tb_config;
  tb_config.num_frames = env_size("FFR_SERVICE_FRAMES", 80);
  circuits::MacTestbench bench = circuits::build_mac_testbench(mac, tb_config);
  // Service-shaped traffic: requests probe the drain phase at the end of a
  // long workload, so every request shares the expensive golden prefix (the
  // exact thing the registry caches) and checkpointed replay starts late.
  const std::size_t trace = bench.tb.stimulus.num_cycles();
  bench.tb.inject_begin = trace > 512 ? trace - 512 : 0;
  std::printf("circuit  : %s\n", mac.netlist.summary().c_str());
  std::printf("workload : %zu cycles, inject window [%zu, %zu)\n",
              trace, bench.tb.inject_begin, bench.tb.inject_end);

  // Persisted model for the predict phases (trained here for hermeticity).
  core::TransferConfig train_config;
  train_config.model = "knn_paper";
  train_config.injections_per_ff = 32;
  const std::vector<core::TransferCircuit> train_set = {
      {&mac.netlist, &bench.tb}};
  const std::filesystem::path model_path =
      std::filesystem::temp_directory_path() / "ffr_bench_service_model.txt";
  core::train_transfer_model(train_set, train_config).save(model_path);

  // A service-shaped campaign request: a targeted subset of flip-flops, not
  // the whole-circuit sweep (which would drown the golden run it shares).
  fault::CampaignConfig request;
  request.injections_per_ff = env_size("FFR_SERVICE_INJECTIONS", 16);
  // A <=64-injection request fits one scalar pass; the wide blocks would
  // sweep 4-8x the word width for the same handful of fault lanes.
  request.lane_width = sim::LaneWidth::k64;
  const std::size_t ff_offset = env_size("FFR_SERVICE_FF_OFFSET", 0);
  for (std::size_t i = 0; i < request_ffs && i < mac.netlist.num_flip_flops(); ++i) {
    request.ff_subset.push_back(
        (ff_offset + i) % mac.netlist.num_flip_flops());
  }

  service::FfrService service;
  std::vector<Row> rows;
  util::Stopwatch stopwatch;

  // Phase 1: cold campaign request — pays stimulus compile + golden run +
  // checkpoints + the campaign itself.
  stopwatch.reset();
  (void)service.wait(service.submit_campaign(mac.netlist, bench.tb, request));
  rows.push_back({"campaign_cold", 1, stopwatch.elapsed_seconds(),
                  service.metrics().snapshot().cache_hits,
                  service.metrics().snapshot().engine_builds});

  // Phase 2: identical request — must hit the cache and skip the build.
  stopwatch.reset();
  (void)service.wait(service.submit_campaign(mac.netlist, bench.tb, request));
  rows.push_back({"campaign_warm", 1, stopwatch.elapsed_seconds(),
                  service.metrics().snapshot().cache_hits,
                  service.metrics().snapshot().engine_builds});

  // Phase 3: predict serving off the cached golden run and the entry's
  // prediction memo.
  const std::uint64_t computed_before =
      service.metrics().snapshot().predictions_computed;
  stopwatch.reset();
  for (std::size_t i = 0; i < num_predicts; ++i) {
    (void)service.submit_predict(model_path, mac.netlist, bench.tb);
  }
  service.wait_all();
  rows.push_back({"predict_cached", num_predicts, stopwatch.elapsed_seconds(),
                  service.metrics().snapshot().cache_hits,
                  service.metrics().snapshot().engine_builds});
  const std::uint64_t predictions_computed =
      service.metrics().snapshot().predictions_computed - computed_before;

  // Phase 4: feature-matrix predicts — no engine, no simulator, ever.
  const sim::GoldenResult golden = sim::run_golden(mac.netlist, bench.tb);
  const features::FeatureMatrix features =
      features::extract_features(mac.netlist, golden.activity);
  service::FfrService model_only;
  stopwatch.reset();
  for (std::size_t i = 0; i < num_predicts; ++i) {
    (void)model_only.submit_predict(model_path, features);
  }
  model_only.wait_all();
  rows.push_back({"predict_features", num_predicts, stopwatch.elapsed_seconds(),
                  model_only.metrics().snapshot().cache_hits,
                  model_only.metrics().snapshot().engine_builds});

  // Phase 5: a cold stream — each pipeline_core testbench is acquired once,
  // so its entry stays probationary and cycles through the probation slice;
  // the interleaved MAC predicts keep hitting their promoted entry.
  const circuits::PipelineCore pipe = circuits::build_pipeline_core();
  std::vector<circuits::PipelineTestbench> cold_benches;
  cold_benches.reserve(num_cold);  // jobs read the testbenches in place
  for (std::size_t i = 0; i < num_cold; ++i) {
    cold_benches.push_back(circuits::build_pipeline_testbench(pipe, 96, 0.7, 1 + i));
  }
  const std::uint64_t builds_before = service.metrics().snapshot().engine_builds;
  stopwatch.reset();
  for (const circuits::PipelineTestbench& cold_bench : cold_benches) {
    (void)service.submit_predict(model_path, pipe.netlist, cold_bench.tb);
    (void)service.submit_predict(model_path, mac.netlist, bench.tb);
  }
  service.wait_all();
  rows.push_back({"predict_cold_stream", 2 * num_cold, stopwatch.elapsed_seconds(),
                  service.metrics().snapshot().cache_hits,
                  service.metrics().snapshot().engine_builds});
  const std::uint64_t cold_builds = rows.back().engine_builds - builds_before;
  const auto probation_bytes = static_cast<std::size_t>(
      service.metrics().snapshot().probation_bytes);

  util::TablePrinter table({"phase", "jobs", "wall ms", "ms/job", "cache hits",
                            "engine builds"});
  for (const Row& row : rows) {
    table.add_row({row.phase, std::to_string(row.jobs),
                   util::TablePrinter::format(row.wall_seconds * 1e3, 2),
                   util::TablePrinter::format(
                       row.wall_seconds * 1e3 / static_cast<double>(row.jobs), 3),
                   std::to_string(row.cache_hits),
                   std::to_string(row.engine_builds)});
  }
  table.print();

  const double cold = rows[0].wall_seconds;
  const double warm = rows[1].wall_seconds;
  std::printf("\nwarm/cold request ratio : %.3f (build + golden skipped)\n",
              warm / cold);
  if (rows[1].cache_hits < 1 || rows[1].engine_builds != 1) {
    std::fprintf(stderr, "FAIL: second identical request did not hit the cache\n");
    return 1;
  }
  std::printf("predict_cached computed : %llu of %zu predictions (%zu workers)\n",
              static_cast<unsigned long long>(predictions_computed),
              num_predicts, service.num_workers());
  if (predictions_computed > service.num_workers()) {
    std::fprintf(stderr,
                 "FAIL: cached predicts computed %llu predictions on %zu "
                 "workers; the prediction memo is not serving them\n",
                 static_cast<unsigned long long>(predictions_computed),
                 service.num_workers());
    return 1;
  }
  if (rows[3].engine_builds != 0) {
    std::fprintf(stderr, "FAIL: feature-matrix predicts built an engine\n");
    return 1;
  }

  std::printf("predict_cold_stream     : %llu engine builds for %zu one-shot "
              "testbenches, %zu probationary bytes resident (slice %zu)\n",
              static_cast<unsigned long long>(cold_builds), num_cold,
              probation_bytes, service.registry().probation_slice_bytes());
  if (cold_builds != num_cold) {
    std::fprintf(stderr,
                 "FAIL: the cold stream built %llu engines for %zu one-shot "
                 "testbenches; the warm MAC entry was rebuilt\n",
                 static_cast<unsigned long long>(cold_builds), num_cold);
    return 1;
  }
  if (probation_bytes > service.registry().probation_slice_bytes()) {
    std::fprintf(stderr,
                 "FAIL: %zu probationary bytes stay resident, over the %zu-byte "
                 "probation slice\n",
                 probation_bytes, service.registry().probation_slice_bytes());
    return 1;
  }

  std::FILE* f = std::fopen("BENCH_service.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(f,
                   "  {\"phase\": \"%s\", \"jobs\": %zu, \"wall_seconds\": "
                   "%.6f, \"cache_hits\": %llu, \"engine_builds\": %llu}%s\n",
                   row.phase.c_str(), row.jobs, row.wall_seconds,
                   static_cast<unsigned long long>(row.cache_hits),
                   static_cast<unsigned long long>(row.engine_builds),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote BENCH_service.json\n");
  }
  std::filesystem::remove(model_path);
  return 0;
}
