#include "service/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

namespace ffr::service {

double latency_bucket_bound(std::size_t bucket) noexcept {
  if (bucket + 1 >= kLatencyBuckets) {
    return std::numeric_limits<double>::infinity();
  }
  // 1e-4 s * 10^(bucket/2): 100us, ~316us, 1ms, ... up to ~3162s.
  return 1e-4 * std::pow(10.0, static_cast<double>(bucket) / 2.0);
}

void LatencyHistogram::record(double seconds) noexcept {
  if (!(seconds >= 0.0)) seconds = 0.0;  // NaN/negative clock glitches
  std::size_t bucket = 0;
  while (bucket + 1 < kLatencyBuckets && seconds > latency_bucket_bound(bucket)) {
    ++bucket;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  samples_.fetch_add(1, std::memory_order_relaxed);
  total_micros_.fetch_add(static_cast<std::uint64_t>(seconds * 1e6),
                          std::memory_order_relaxed);
}

double LatencyHistogram::total_seconds() const noexcept {
  return static_cast<double>(total_micros_.load(std::memory_order_relaxed)) * 1e-6;
}

double LatencyHistogram::mean_seconds() const noexcept {
  const std::uint64_t n = samples();
  return n == 0 ? 0.0 : total_seconds() / static_cast<double>(n);
}

MetricsSnapshot ServiceMetrics::snapshot() const noexcept {
  MetricsSnapshot s;
  s.cache_hits = cache_hits.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses.load(std::memory_order_relaxed);
  s.cache_evictions = cache_evictions.load(std::memory_order_relaxed);
  s.evictions_probation = evictions_probation.load(std::memory_order_relaxed);
  s.evictions_budget = evictions_budget.load(std::memory_order_relaxed);
  s.evictions_explicit = evictions_explicit.load(std::memory_order_relaxed);
  s.evicted_bytes = evicted_bytes.load(std::memory_order_relaxed);
  s.engine_builds = engine_builds.load(std::memory_order_relaxed);
  s.resident_engines = resident_engines.load(std::memory_order_relaxed);
  s.resident_bytes = resident_bytes.load(std::memory_order_relaxed);
  s.probation_bytes = probation_bytes.load(std::memory_order_relaxed);
  s.resident_netlists = resident_netlists.load(std::memory_order_relaxed);
  s.predictions_computed = predictions_computed.load(std::memory_order_relaxed);
  s.predictions_reused = predictions_reused.load(std::memory_order_relaxed);
  s.jobs_submitted = jobs_submitted.load(std::memory_order_relaxed);
  s.jobs_completed = jobs_completed.load(std::memory_order_relaxed);
  s.jobs_failed = jobs_failed.load(std::memory_order_relaxed);
  s.jobs_cancelled = jobs_cancelled.load(std::memory_order_relaxed);
  s.queue_depth = queue_depth.load(std::memory_order_relaxed);
  s.shards_completed = shards_completed.load(std::memory_order_relaxed);
  s.shards_resumed = shards_resumed.load(std::memory_order_relaxed);
  s.campaign_jobs = campaign_seconds.samples();
  s.campaign_mean_seconds = campaign_seconds.mean_seconds();
  s.predict_jobs = predict_seconds.samples();
  s.predict_mean_seconds = predict_seconds.mean_seconds();
  return s;
}

namespace {

void append_counter(std::string& out, const char* name, std::uint64_t value) {
  out += "ffr_service_";
  out += name;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

void append_histogram(std::string& out, const char* name,
                      const LatencyHistogram& histogram) {
  std::uint64_t cumulative = 0;
  for (std::size_t bucket = 0; bucket < kLatencyBuckets; ++bucket) {
    cumulative += histogram.bucket_count(bucket);
    const double bound = latency_bucket_bound(bucket);
    char label[32];
    if (std::isinf(bound)) {
      std::snprintf(label, sizeof label, "inf");
    } else {
      std::snprintf(label, sizeof label, "%g", bound);
    }
    out += "ffr_service_";
    out += name;
    out += "_seconds_le_";
    out += label;
    out += ' ';
    out += std::to_string(cumulative);
    out += '\n';
  }
  char line[96];
  std::snprintf(line, sizeof line, "ffr_service_%s_seconds_sum %.6f\n", name,
                histogram.total_seconds());
  out += line;
  append_counter(out, (std::string(name) + "_seconds_count").c_str(),
                 histogram.samples());
}

}  // namespace

std::string ServiceMetrics::to_text() const {
  const MetricsSnapshot s = snapshot();
  std::string out;
  out.reserve(1024);
  append_counter(out, "cache_hits", s.cache_hits);
  append_counter(out, "cache_misses", s.cache_misses);
  append_counter(out, "cache_evictions", s.cache_evictions);
  append_counter(out, "cache_evictions_probation", s.evictions_probation);
  append_counter(out, "cache_evictions_budget", s.evictions_budget);
  append_counter(out, "cache_evictions_explicit", s.evictions_explicit);
  append_counter(out, "evicted_bytes", s.evicted_bytes);
  append_counter(out, "engine_builds", s.engine_builds);
  append_counter(out, "resident_engines", s.resident_engines);
  append_counter(out, "resident_bytes", s.resident_bytes);
  append_counter(out, "probation_bytes", s.probation_bytes);
  append_counter(out, "resident_netlists", s.resident_netlists);
  append_counter(out, "predictions_computed", s.predictions_computed);
  append_counter(out, "predictions_reused", s.predictions_reused);
  append_counter(out, "jobs_submitted", s.jobs_submitted);
  append_counter(out, "jobs_completed", s.jobs_completed);
  append_counter(out, "jobs_failed", s.jobs_failed);
  append_counter(out, "jobs_cancelled", s.jobs_cancelled);
  append_counter(out, "queue_depth", s.queue_depth);
  append_counter(out, "shards_completed", s.shards_completed);
  append_counter(out, "shards_resumed", s.shards_resumed);
  append_histogram(out, "campaign", campaign_seconds);
  append_histogram(out, "predict", predict_seconds);
  return out;
}

}  // namespace ffr::service
