#pragma once
// Shared pieces of the fferate benchmark: the run report, the in-memory span
// tracer, small statistics helpers and the host/build fingerprint.
//
// Every workload fills one Report. With tracing off it carries the
// end-to-end metrics; with tracing on it carries the per-layer metrics,
// derived from the spans the benchmark records around its calls into the
// library (the library itself is never instrumented).

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "fault/campaign.hpp"
#include "service/job_queue.hpp"

namespace perfbench {

/// Command-line arguments shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the model file and the trace dump.
  std::filesystem::path out_dir = ".bench_build/perfbench-out";
};

/// Fixed load shape: campaigns run on 2 threads, the service on 2 workers
/// with 2 requests in flight. On a 4-core host shared with other load this
/// leaves cores spare, so a neighbour's burst does not stall a straggler
/// thread of every campaign.
inline constexpr std::size_t kThreads = 2;
inline constexpr std::size_t kWorkers = 2;
inline constexpr std::size_t kInFlight = 2;

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Outcome of one benchmark invocation.
struct Report {
  std::uint64_t attempted = 0;  ///< Operations issued (campaigns, flows, requests).
  std::uint64_t failed = 0;     ///< Operations that failed or were incorrect.
  std::vector<std::string> errors;  ///< One line per failed check.
  std::map<std::string, Metric> metrics;
  /// Resolved run shape for the fingerprint ("512x2" lanes x blocks).
  std::string pass_shape = "n/a";

  /// Records a check; a false `ok` marks the run incorrect.
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const noexcept { return errors.empty(); }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Sets the metric only when the workload has not measured it itself.
  void fill(const std::string& name, double value, const std::string& unit) {
    metrics.try_emplace(name, Metric{value, unit});
  }
};

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// The highest percentile, capped at p95 and floored at p50, that leaves at
/// least ten samples beyond it.
[[nodiscard]] double tail(const std::vector<double>& values);

/// Seconds since `start` on the steady clock.
using Clock = std::chrono::steady_clock;
[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Repeated set-up timing; `once()` builds one set-up and returns its
/// seconds. Single-threaded set-up time on a shared host is bimodal (about
/// 1.5x between modes, switching every few seconds), so cheap set-ups are
/// sampled across the whole run and summarised by the interquartile mean,
/// which moves smoothly with the mix of fast and slow samples where the
/// median would jump between modes.
class SetupTimer {
 public:
  /// One untimed second of set-ups: the host clocks up over about that
  /// long, and set-ups timed before it read up to twice as slow.
  template <typename Once>
  void warm_up(Once&& once) {
    const auto start = Clock::now();
    do {
      (void)once();
    } while (seconds_since(start) < 1.0);
  }
  template <typename Once>
  void sample(Once&& once, std::size_t runs) {
    for (std::size_t i = 0; i < runs; ++i) times_.push_back(once());
  }
  /// Mean of the samples between the first and third quartile.
  [[nodiscard]] double seconds() const;

 private:
  std::vector<double> times_;
};

/// Independent 64-bit values derived from the workload seed (SplitMix64).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// ---- tracing ----------------------------------------------------------------

/// One timed call into a layer. Start/end are seconds since the tracer was
/// created; `parent` indexes the enclosing span (or -1).
struct Span {
  std::string name;
  std::string phase;
  double start = 0.0;
  double end = 0.0;
  long parent = -1;
  std::uint64_t request = 0;
  std::map<std::string, double> attrs;

  [[nodiscard]] double seconds() const noexcept { return end - start; }
};

/// In-memory span recorder for the driver thread. Disabled tracers record
/// nothing, so the untraced run pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// RAII span: opens on construction under the innermost open span and
  /// closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void attr(const std::string& key, double value);

   private:
    Tracer& tracer_;
    long index_ = -1;
  };

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  /// Tags subsequent spans ("main", "walk", "sweep", ...).
  void set_phase(std::string phase) { phase_ = std::move(phase); }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Spans of one name within one phase.
  [[nodiscard]] std::vector<const Span*> find(std::string_view name,
                                              std::string_view phase) const;
  /// Per-span-name self time: duration minus the time child spans cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// One JSON object per span, one per line.
  void write(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::string phase_ = "main";
  std::vector<Span> spans_;
  std::vector<long> open_;
};

// ---- per-layer metrics ------------------------------------------------------

/// Service-layer observations of one phase: per-job-class latencies from
/// JobStatus plus the ServiceMetrics snapshot.
struct ServiceObservation {
  std::vector<double> queue_ms[2];  ///< Indexed by JobClass.
  std::vector<double> run_ms[2];
  ffr::service::MetricsSnapshot snapshot;
  bool present = false;

  void add(const ffr::service::JobStatus& status);
};

/// Span attributes of one campaign result run on `threads` workers
/// (deterministic counters and lane fill; op cost is derived at fill time).
void annotate_campaign(Tracer::Scope& span, const ffr::fault::CampaignResult& result,
                       std::size_t threads);

/// "lanes x blocks" of a result's full-shape pass, e.g. "512x2".
[[nodiscard]] std::string pass_shape(const ffr::fault::CampaignResult& result);

/// True when two campaign results agree on every per-FF class count and on
/// the deterministic cost counters.
[[nodiscard]] bool same_campaign(const ffr::fault::CampaignResult& a,
                                 const ffr::fault::CampaignResult& b);

/// Fills every per-layer metric this phase's spans and service observation
/// can answer (metrics already present are kept).
void fill_layer_metrics(const Tracer& tracer, std::string_view phase,
                        const ServiceObservation* service, Report& report);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// One-line host and build fingerprint.
[[nodiscard]] std::string fingerprint(const Report& report);

}  // namespace perfbench
