#include "service/job_queue.hpp"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "fault/shard.hpp"
#include "util/thread_pool.hpp"

namespace ffr::service {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point from,
                                     Clock::time_point to) noexcept {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

/// One submitted job. The payload closure and the result slots are written
/// only by the worker that runs the job; state, timing and error fields are
/// guarded by Impl::mutex.
struct FfrService::Job {
  JobId id = 0;
  JobClass job_class = JobClass::kCampaign;
  JobState state = JobState::kQueued;
  std::string error;

  Clock::time_point submitted;
  Clock::time_point started;
  double queue_seconds = 0.0;
  double run_seconds = 0.0;

  /// The work itself; fills exactly one of the result slots below. Cleared
  /// after the run so captured netlist/testbench references are released as
  /// soon as the job is terminal.
  std::function<void(Job&)> work;
  /// Heap-held so that the job table's many predict records stay small.
  std::unique_ptr<const fault::CampaignResult> campaign;
  /// Shared with the registry's memo (or owned alone, for feature-matrix
  /// predicts): a warm predict job keeps no copy of its result.
  std::shared_ptr<const linalg::Vector> prediction;
};

class FfrService::Impl {
 public:
  explicit Impl(std::size_t num_workers) : pool(num_workers) {}

  mutable std::mutex mutex;
  std::condition_variable job_done;
  std::map<JobId, std::shared_ptr<Job>> jobs;
  JobId next_id = 0;
  std::size_t active = 0;  ///< Jobs in kQueued or kRunning.

  std::mutex models_mutex;
  std::map<std::string, std::shared_ptr<const core::TransferModel>> models;

  /// Last member: destroyed first, draining queued work while the job table
  /// and the enclosing service's registry/metrics are still alive.
  util::ThreadPool pool;
};

FfrService::FfrService(ServiceConfig config)
    : registry_(config.registry, &metrics_),
      impl_(std::make_unique<Impl>(config.num_workers)) {}

FfrService::~FfrService() { wait_all(); }

std::size_t FfrService::num_workers() const noexcept { return impl_->pool.size(); }

JobId FfrService::enqueue(std::shared_ptr<Job> job) {
  job->submitted = Clock::now();
  JobId id = 0;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    id = ++impl_->next_id;
    job->id = id;
    impl_->jobs.emplace(id, job);
    ++impl_->active;
  }
  metrics_.jobs_submitted.fetch_add(1, std::memory_order_relaxed);
  metrics_.queue_depth.fetch_add(1, std::memory_order_relaxed);
  impl_->pool.submit([this, job = std::move(job)] { run_job(job); });
  return id;
}

void FfrService::run_job(const std::shared_ptr<Job>& job) {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (job->state != JobState::kQueued) return;  // cancelled while queued
    job->state = JobState::kRunning;
    job->started = Clock::now();
    job->queue_seconds = seconds_between(job->submitted, job->started);
  }

  std::string error;
  bool failed = false;
  try {
    job->work(*job);
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  } catch (...) {
    failed = true;
    error = "unknown error";
  }

  const double run_seconds = seconds_between(job->started, Clock::now());
  // Metered before the job turns terminal, so a wait()/wait_all() that sees
  // it finished also sees it counted.
  metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
  if (failed) {
    metrics_.jobs_failed.fetch_add(1, std::memory_order_relaxed);
  } else {
    metrics_.jobs_completed.fetch_add(1, std::memory_order_relaxed);
    (job->job_class == JobClass::kCampaign ? metrics_.campaign_seconds
                                           : metrics_.predict_seconds)
        .record(run_seconds);
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    job->state = failed ? JobState::kFailed : JobState::kDone;
    job->error = std::move(error);
    job->run_seconds = run_seconds;
    job->work = nullptr;
    --impl_->active;
  }
  impl_->job_done.notify_all();
}

JobId FfrService::submit_campaign(const netlist::Netlist& nl,
                                  const sim::Testbench& tb,
                                  fault::CampaignConfig config) {
  auto job = std::make_shared<Job>();
  job->job_class = JobClass::kCampaign;
  job->work = [this, &nl, &tb, config = std::move(config)](Job& self) {
    std::shared_ptr<const fault::CampaignEngine> engine = registry_.acquire(nl, tb);
    self.campaign = std::make_unique<const fault::CampaignResult>(engine->run(config));
  };
  return enqueue(std::move(job));
}

JobId FfrService::submit_sharded_campaign(const netlist::Netlist& nl,
                                          const sim::Testbench& tb,
                                          fault::CampaignConfig config,
                                          std::size_t shard_count,
                                          std::filesystem::path partial_dir,
                                          std::vector<JobId>* shard_jobs) {
  if (shard_count == 0) {
    throw std::invalid_argument(
        "ffr_service: sharded campaign needs shard_count >= 1");
  }
  // One slot per shard, written only by that shard's worker; the merge job
  // reads a slot only after wait() observed the shard job done, so the
  // job-state mutex orders every write before the read.
  auto partials = std::make_shared<
      std::vector<std::optional<fault::CampaignPartial>>>(shard_count);

  std::vector<JobId> ids;
  ids.reserve(shard_count);
  for (std::size_t k = 0; k < shard_count; ++k) {
    fault::CampaignConfig shard_config = config;
    shard_config.shard.index = k;
    shard_config.shard.count = shard_count;
    auto job = std::make_shared<Job>();
    job->job_class = JobClass::kCampaign;
    job->work = [this, &nl, &tb, shard_config = std::move(shard_config),
                 partial_dir, partials, k](Job& self) {
      std::shared_ptr<const fault::CampaignEngine> engine =
          registry_.acquire(nl, tb);
      fault::CampaignPartial partial;
      if (partial_dir.empty()) {
        partial = fault::run_shard(*engine, shard_config);
        metrics_.shards_completed.fetch_add(1, std::memory_order_relaxed);
      } else {
        bool resumed = false;
        partial = fault::load_or_run_shard(*engine, shard_config, partial_dir,
                                           &resumed);
        (resumed ? metrics_.shards_resumed : metrics_.shards_completed)
            .fetch_add(1, std::memory_order_relaxed);
      }
      self.campaign = std::make_unique<const fault::CampaignResult>(partial.result);
      (*partials)[k] = std::move(partial);
    };
    ids.push_back(enqueue(std::move(job)));
  }
  if (shard_jobs != nullptr) {
    shard_jobs->insert(shard_jobs->end(), ids.begin(), ids.end());
  }

  // Enqueued after every shard job: the FIFO pool pops the merge only once
  // all shards are at least running, so blocking in wait() here can never
  // deadlock the pool — even with a single worker, which runs the shards to
  // completion before reaching this job.
  auto merge = std::make_shared<Job>();
  merge->job_class = JobClass::kCampaign;
  merge->work = [this, ids = std::move(ids), partials](Job& self) {
    // Every shard is terminal before the merge reports anything, so a
    // terminal merge implies terminal shards (a caller may then delete
    // partial_dir) and a failure names the first failed shard.
    for (const JobId id : ids) (void)wait(id);
    std::vector<fault::CampaignPartial> collected;
    collected.reserve(ids.size());
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const JobStatus shard_status = status(ids[k]);
      if (shard_status.state != JobState::kDone) {
        throw std::runtime_error(
            "ffr_service: shard job " + std::to_string(ids[k]) + " (shard " +
            std::to_string(k) + ") " +
            std::string(to_string(shard_status.state)) +
            (shard_status.error.empty() ? "" : ": " + shard_status.error));
      }
      collected.push_back(std::move(*(*partials)[k]));
    }
    self.campaign =
        std::make_unique<const fault::CampaignResult>(fault::merge_partials(collected));
  };
  return enqueue(std::move(merge));
}

JobId FfrService::submit_predict(const std::filesystem::path& model_path,
                                 const netlist::Netlist& nl,
                                 const sim::Testbench& tb) {
  auto job = std::make_shared<Job>();
  job->job_class = JobClass::kPredict;
  job->work = [this, model_path, &nl, &tb](Job& self) {
    self.prediction = registry_.predict(nl, tb, model(model_path));
  };
  return enqueue(std::move(job));
}

JobId FfrService::submit_predict(const std::filesystem::path& model_path,
                                 features::FeatureMatrix features) {
  auto job = std::make_shared<Job>();
  job->job_class = JobClass::kPredict;
  job->work = [this, model_path,
               features = std::move(features)](Job& self) {
    self.prediction =
        std::make_shared<const linalg::Vector>(model(model_path)->predict(features));
  };
  return enqueue(std::move(job));
}

bool FfrService::cancel(JobId id) {
  bool cancelled = false;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->jobs.find(id);
    if (it == impl_->jobs.end() || it->second->state != JobState::kQueued) {
      return false;
    }
    Job& job = *it->second;
    job.state = JobState::kCancelled;
    job.queue_seconds = seconds_between(job.submitted, Clock::now());
    job.work = nullptr;
    --impl_->active;
    cancelled = true;
    // Counted before the lock is released, as in run_job: whoever sees the
    // job terminal sees it counted.
    metrics_.jobs_cancelled.fetch_add(1, std::memory_order_relaxed);
    metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
  }
  impl_->job_done.notify_all();
  return cancelled;
}

namespace {

[[nodiscard]] bool is_terminal(JobState state) noexcept {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

}  // namespace

JobStatus FfrService::status(JobId id) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end()) {
    throw std::out_of_range("ffr_service: unknown job id " + std::to_string(id));
  }
  const Job& job = *it->second;
  JobStatus status;
  status.id = job.id;
  status.job_class = job.job_class;
  status.state = job.state;
  status.error = job.error;
  status.queue_seconds = job.queue_seconds;
  status.run_seconds = job.run_seconds;
  return status;
}

JobStatus FfrService::wait(JobId id) {
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    auto it = impl_->jobs.find(id);
    if (it == impl_->jobs.end()) {
      throw std::out_of_range("ffr_service: unknown job id " +
                              std::to_string(id));
    }
    std::shared_ptr<Job> job = it->second;
    impl_->job_done.wait(lock, [&job] { return is_terminal(job->state); });
  }
  return status(id);
}

void FfrService::wait_all() {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->job_done.wait(lock, [this] { return impl_->active == 0; });
}

fault::CampaignResult FfrService::campaign_result(JobId id) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end()) {
    throw std::out_of_range("ffr_service: unknown job id " + std::to_string(id));
  }
  const Job& job = *it->second;
  if (job.job_class != JobClass::kCampaign || job.state != JobState::kDone ||
      job.campaign == nullptr) {
    throw std::logic_error(
        "ffr_service: job " + std::to_string(id) + " is not a done campaign (" +
        std::string(to_string(job.job_class)) + "/" +
        std::string(to_string(job.state)) +
        (job.error.empty() ? "" : ": " + job.error) + ")");
  }
  return *job.campaign;
}

linalg::Vector FfrService::prediction(JobId id) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end()) {
    throw std::out_of_range("ffr_service: unknown job id " + std::to_string(id));
  }
  const Job& job = *it->second;
  if (job.job_class != JobClass::kPredict || job.state != JobState::kDone ||
      job.prediction == nullptr) {
    throw std::logic_error(
        "ffr_service: job " + std::to_string(id) + " is not a done predict (" +
        std::string(to_string(job.job_class)) + "/" +
        std::string(to_string(job.state)) +
        (job.error.empty() ? "" : ": " + job.error) + ")");
  }
  return *job.prediction;
}

std::shared_ptr<const core::TransferModel> FfrService::model(
    const std::filesystem::path& model_path) {
  const std::string key = model_path.lexically_normal().string();
  std::lock_guard<std::mutex> lock(impl_->models_mutex);
  auto it = impl_->models.find(key);
  if (it != impl_->models.end()) return it->second;
  auto loaded = std::make_shared<const core::TransferModel>(
      core::TransferModel::load(model_path));
  impl_->models.emplace(key, loaded);
  return loaded;
}

}  // namespace ffr::service
