#pragma once
/// \file job_queue.hpp
/// \brief The campaign-and-prediction service: an async job queue over the
/// engine registry, a load-once TransferModel cache, and service metrics.
///
/// FfrService is the long-lived front end of the whole flow — the
/// "millions of users" architecture the paper's cost story implies: most
/// requests should hit a model or a cache, not a simulator. It accepts two
/// job classes:
///
///  - **Campaign jobs** (submit_campaign): a full fault-injection campaign
///    (any fault::CampaignConfig, including ff_subset shards) against the
///    registry-cached engine for the (netlist, testbench) content — repeated
///    and concurrent requests share one golden run, checkpoint set and
///    compiled stimulus, and results are bit-identical to a direct
///    CampaignEngine::run. submit_sharded_campaign() splits one campaign
///    into N shard jobs plus a merge job (fault/shard.hpp), optionally
///    resuming shards from partial files on disk.
///  - **Predict jobs** (submit_predict): per-flip-flop FDR from a persisted
///    core::TransferModel (PR 5's train-once/predict-many serving). The
///    model file is loaded once per path and shared by every job. The
///    feature-matrix overload never touches a simulator at all; the
///    (netlist, testbench) overload needs only the golden activity, which
///    comes from the registry-cached engine, and its result is memoized on
///    the registry entry per model — so after the first request on a
///    design, thousands of predictions neither simulate nor re-predict.
///
/// Jobs get monotonically increasing ids and move through
/// queued -> running -> done/failed; queued jobs can be cancelled. Results
/// are polled (status) or awaited (wait / wait_all) and fetched with
/// campaign_result / prediction. Workers run on the existing
/// util::ThreadPool; every metric lands in the shared ServiceMetrics
/// (cache hits/misses, evictions, queue depth, per-job-class latency).
///
/// Lifetimes: netlists/testbenches passed to submit_* must stay alive until
/// that job reaches a terminal state (the registry copies them when the
/// worker first touches the pair — the same contract as CampaignEngine).
/// The service drains in-flight jobs in its destructor.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/transfer_flow.hpp"
#include "fault/campaign.hpp"
#include "features/extractor.hpp"
#include "netlist/netlist.hpp"
#include "service/engine_registry.hpp"
#include "service/metrics.hpp"
#include "sim/testbench.hpp"

namespace ffr::service {

using JobId = std::uint64_t;

enum class JobClass { kCampaign, kPredict };
enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

[[nodiscard]] constexpr const char* to_string(JobClass job_class) noexcept {
  switch (job_class) {
    case JobClass::kCampaign: return "campaign";
    case JobClass::kPredict: return "predict";
  }
  return "?";
}

[[nodiscard]] constexpr const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

/// Point-in-time view of one job.
struct JobStatus {
  JobId id = 0;
  JobClass job_class = JobClass::kCampaign;
  JobState state = JobState::kQueued;
  std::string error;          ///< what() of the failure (kFailed only).
  double queue_seconds = 0.0; ///< Submit -> start (or cancel).
  double run_seconds = 0.0;   ///< Start -> terminal state (0 while running).
};

struct ServiceConfig {
  /// Worker threads; 0 = hardware concurrency.
  std::size_t num_workers = 0;
  /// Engine-registry byte budget and policy.
  RegistryConfig registry;
};

class FfrService {
 public:
  explicit FfrService(ServiceConfig config = {});
  /// Drains: blocks until every submitted job reached a terminal state.
  ~FfrService();

  FfrService(const FfrService&) = delete;
  FfrService& operator=(const FfrService&) = delete;

  // ---- submission ----------------------------------------------------------

  /// Enqueues a full campaign on the registry-cached engine for this
  /// (netlist, testbench) content. `config.ff_subset` makes this a shard.
  [[nodiscard]] JobId submit_campaign(const netlist::Netlist& nl,
                                      const sim::Testbench& tb,
                                      fault::CampaignConfig config = {});

  /// Enqueues a k-of-N sharded campaign (fault/shard.hpp): `shard_count`
  /// shard jobs — each running one ShardSpec{k, N} share of the campaign on
  /// the registry-cached engine — followed by one merge job whose
  /// CampaignResult is bit-identical to an unsharded CampaignEngine::run of
  /// `config`. The merge job is enqueued after every shard job on the FIFO
  /// worker pool, so it can never starve its own shards even on one worker.
  /// A non-empty `partial_dir` enables resume-from-partial: each shard job
  /// first looks for its canonical partial file there (skipping the engine
  /// run when a matching one exists, counted in metrics shards_resumed vs
  /// shards_completed) and persists its partial on completion. Partials that
  /// exist but fail validation fail that shard job — and thereby the merge.
  /// The merge job waits until every shard job is terminal before it
  /// reports success or the first failed shard, so once the merge is
  /// terminal no shard touches `partial_dir` any more (it may be deleted).
  /// `config.shard` is overwritten per shard job. Returns the merge job id
  /// (a kCampaign job: fetch with campaign_result); when `shard_jobs` is
  /// non-null the N shard job ids are appended to it (each also a kCampaign
  /// job holding its own share as result).
  /// \throws std::invalid_argument when shard_count is 0.
  [[nodiscard]] JobId submit_sharded_campaign(
      const netlist::Netlist& nl, const sim::Testbench& tb,
      fault::CampaignConfig config, std::size_t shard_count,
      std::filesystem::path partial_dir = {},
      std::vector<JobId>* shard_jobs = nullptr);

  /// Enqueues a prediction of every flip-flop's FDR in `nl` using the
  /// persisted transfer model at `model_path` (loaded once per path),
  /// served by EngineRegistry::predict: the first predict of a model on a
  /// (netlist, testbench) content extracts features from the cached
  /// engine's golden activity and memoizes the result on the registry
  /// entry; every later one is a content hash, a table lookup and a memo
  /// lookup, and the job shares the memoized vector instead of copying it.
  /// No fault injection ever, and no simulation once the engine is cached.
  [[nodiscard]] JobId submit_predict(const std::filesystem::path& model_path,
                                     const netlist::Netlist& nl,
                                     const sim::Testbench& tb);

  /// Enqueues a prediction from an already-extracted raw feature matrix.
  /// Never constructs a simulator or an engine (pure model serving).
  [[nodiscard]] JobId submit_predict(const std::filesystem::path& model_path,
                                     features::FeatureMatrix features);

  // ---- lifecycle -----------------------------------------------------------

  /// Cancels a queued job. Returns true when the job was still queued (it
  /// moves to kCancelled and never runs); false when it already started,
  /// finished, or the id is unknown — running jobs are not interrupted.
  bool cancel(JobId id);

  /// \throws std::out_of_range on an unknown id.
  [[nodiscard]] JobStatus status(JobId id) const;

  /// Blocks until the job reaches a terminal state and returns it.
  JobStatus wait(JobId id);

  /// Blocks until every job submitted so far is terminal.
  void wait_all();

  // ---- results -------------------------------------------------------------

  /// Result of a done campaign job.
  /// \throws std::out_of_range on an unknown id, std::logic_error when the
  ///         job is not a done campaign job (failed jobs rethrow semantics:
  ///         the stored error is in status().error).
  [[nodiscard]] fault::CampaignResult campaign_result(JobId id) const;

  /// Predicted FDR vector of a done predict job (Netlist::flip_flops()
  /// order for the (netlist, testbench) overload, feature-row order for the
  /// feature-matrix overload).
  [[nodiscard]] linalg::Vector prediction(JobId id) const;

  // ---- shared components ---------------------------------------------------

  /// The transfer model for `model_path`, loading it on first use (one
  /// ml::load_model per path, shared across predict jobs and callers).
  /// \throws std::runtime_error on a missing or corrupt model file.
  [[nodiscard]] std::shared_ptr<const core::TransferModel> model(
      const std::filesystem::path& model_path);

  /// Worker threads (ServiceConfig::num_workers, 0 resolved).
  [[nodiscard]] std::size_t num_workers() const noexcept;

  [[nodiscard]] EngineRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const ServiceMetrics& metrics() const noexcept { return metrics_; }

 private:
  struct Job;
  class Impl;

  void run_job(const std::shared_ptr<Job>& job);
  JobId enqueue(std::shared_ptr<Job> job);

  ServiceMetrics metrics_;
  EngineRegistry registry_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ffr::service
