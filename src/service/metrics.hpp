#pragma once
/// \file metrics.hpp
/// \brief Service observability: lock-free counters and latency histograms
/// for the campaign-and-prediction front end.
///
/// One ServiceMetrics instance is shared by the engine registry and the job
/// queue (every member is an atomic, so concurrent workers update it without
/// locking). snapshot() captures a plain-struct view for programmatic
/// assertions, and to_text() renders the whole surface as a
/// `name value` dump (one metric per line, histograms as cumulative `le`
/// buckets) for the ffr_service demo CLI and log scraping.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace ffr::service {

/// Log-scale latency histogram: bucket k counts samples with
/// latency <= kLatencyBucketBounds[k]; the last bucket is unbounded.
inline constexpr std::size_t kLatencyBuckets = 16;

/// Upper bounds in seconds: 100us, 316us, 1ms, ... half-decade steps up to
/// ~316s, then +inf.
[[nodiscard]] double latency_bucket_bound(std::size_t bucket) noexcept;

/// Latency histogram with atomic buckets. record() is wait-free; readers
/// see a consistent-enough view for monitoring (no cross-bucket snapshot
/// atomicity, as usual for scrape-style metrics).
class LatencyHistogram {
 public:
  void record(double seconds) noexcept;

  [[nodiscard]] std::uint64_t samples() const noexcept {
    return samples_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double total_seconds() const noexcept;
  /// Mean latency over all samples; 0 when empty.
  [[nodiscard]] double mean_seconds() const noexcept;
  [[nodiscard]] std::uint64_t bucket_count(std::size_t bucket) const noexcept {
    return buckets_.at(bucket).load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kLatencyBuckets> buckets_{};
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> total_micros_{0};
};

/// Plain-struct snapshot of every counter (histograms summarized as
/// count/mean), safe to copy around and assert on in tests.
struct MetricsSnapshot {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t evictions_probation = 0;
  std::uint64_t evictions_budget = 0;
  std::uint64_t evictions_explicit = 0;
  std::uint64_t evicted_bytes = 0;
  std::uint64_t engine_builds = 0;
  std::uint64_t resident_engines = 0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t probation_bytes = 0;
  std::uint64_t resident_netlists = 0;
  std::uint64_t predictions_computed = 0;
  std::uint64_t predictions_reused = 0;
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t shards_completed = 0;
  std::uint64_t shards_resumed = 0;
  std::uint64_t campaign_jobs = 0;
  double campaign_mean_seconds = 0.0;
  std::uint64_t predict_jobs = 0;
  double predict_mean_seconds = 0.0;
};

/// The shared metric surface. All counters are cumulative except
/// queue_depth / resident_* which are gauges maintained by their owners.
struct ServiceMetrics {
  // Engine registry.
  std::atomic<std::uint64_t> cache_hits{0};      ///< acquire() found the engine.
  std::atomic<std::uint64_t> cache_misses{0};    ///< acquire() had to build.
  std::atomic<std::uint64_t> cache_evictions{0}; ///< Entries dropped, any cause.
  /// cache_evictions by EvictionReason: a one-shot entry pushed out of the
  /// probation slice, an entry dropped for the whole byte budget, and
  /// evict() / clear().
  std::atomic<std::uint64_t> evictions_probation{0};
  std::atomic<std::uint64_t> evictions_budget{0};
  std::atomic<std::uint64_t> evictions_explicit{0};
  std::atomic<std::uint64_t> evicted_bytes{0};   ///< Bytes reclaimed by eviction.
  std::atomic<std::uint64_t> engine_builds{0};   ///< Golden simulations run.
  std::atomic<std::uint64_t> resident_engines{0};///< Gauge: cached entries.
  std::atomic<std::uint64_t> resident_bytes{0};  ///< Gauge: cached bytes.
  /// Gauge: the part of resident_bytes charged to probationary entries.
  std::atomic<std::uint64_t> probation_bytes{0};
  /// Gauge: distinct netlist copies alive (shared by the entries of one
  /// design), as of the registry's last update.
  std::atomic<std::uint64_t> resident_netlists{0};
  /// EngineRegistry::predict calls that ran the model (memo misses,
  /// including concurrent first predicts that raced on one entry).
  std::atomic<std::uint64_t> predictions_computed{0};
  /// EngineRegistry::predict calls answered from an entry's memo.
  std::atomic<std::uint64_t> predictions_reused{0};

  // Job queue.
  std::atomic<std::uint64_t> jobs_submitted{0};
  std::atomic<std::uint64_t> jobs_completed{0};
  std::atomic<std::uint64_t> jobs_failed{0};
  std::atomic<std::uint64_t> jobs_cancelled{0};
  std::atomic<std::uint64_t> queue_depth{0};     ///< Gauge: queued + running.

  // Sharded campaigns (FfrService::submit_sharded_campaign).
  /// Shard jobs that actually executed on the engine (not resumed).
  std::atomic<std::uint64_t> shards_completed{0};
  /// Shard jobs satisfied by a partial file on disk (resume-from-partial).
  std::atomic<std::uint64_t> shards_resumed{0};

  // Per-job-class wall time (run only, queue wait excluded).
  LatencyHistogram campaign_seconds;
  LatencyHistogram predict_seconds;

  [[nodiscard]] MetricsSnapshot snapshot() const noexcept;

  /// Text dump, one `ffr_service_<name> <value>` line per metric plus
  /// cumulative histogram buckets (`..._le_<bound>`), stable ordering.
  [[nodiscard]] std::string to_text() const;
};

}  // namespace ffr::service
