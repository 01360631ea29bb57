#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "sim/lane_block.hpp"
#include "util/rng.hpp"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  if (!ok) errors.push_back(what);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double tail(const std::vector<double>& values) {
  const double n = static_cast<double>(values.size());
  return quantile(values, std::clamp(1.0 - 10.0 / n, 0.5, 0.95));
}

double SetupTimer::seconds() const {
  if (times_.empty()) throw std::logic_error("SetupTimer: no samples");
  std::vector<double> sorted = times_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t drop = sorted.size() / 4;
  double sum = 0.0;
  for (std::size_t i = drop; i < sorted.size() - drop; ++i) sum += sorted[i];
  return sum / static_cast<double>(sorted.size() - 2 * drop);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0xD1B54A32D192ED03ULL);
  return ffr::util::splitmix64(state);
}

// ---- tracing ----------------------------------------------------------------

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Span span;
  span.name = std::move(name);
  span.phase = tracer_.phase_;
  span.request = request;
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  index_ = static_cast<long>(tracer_.spans_.size());
  tracer_.open_.push_back(index_);
  span.start = seconds_since(tracer_.origin_);
  tracer_.spans_.push_back(std::move(span));
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end = seconds_since(tracer_.origin_);
  tracer_.open_.pop_back();
}

void Tracer::Scope::attr(const std::string& key, double value) {
  if (index_ >= 0) tracer_.spans_[static_cast<std::size_t>(index_)].attrs[key] = value;
}

std::vector<const Span*> Tracer::find(std::string_view name,
                                      std::string_view phase) const {
  std::vector<const Span*> found;
  for (const Span& span : spans_) {
    if (span.name == name && span.phase == phase) found.push_back(&span);
  }
  return found;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].seconds();
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= span.seconds();
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) by_name[spans_[i].name] += self[i];
  return by_name;
}

void Tracer::write(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path.string());
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return std::string(buf);
  };
  for (const Span& span : spans_) {
    out << "{\"name\": \"" << span.name << "\", \"phase\": \"" << span.phase
        << "\", \"start\": " << num(span.start) << ", \"end\": " << num(span.end)
        << ", \"parent\": " << span.parent << ", \"request\": " << span.request
        << ", \"attrs\": {";
    const char* sep = "";
    for (const auto& [key, value] : span.attrs) {
      out << sep << '"' << key << "\": " << num(value);
      sep = ", ";
    }
    out << "}}\n";
  }
}

// ---- per-layer metrics ------------------------------------------------------

void ServiceObservation::add(const ffr::service::JobStatus& status) {
  const auto k = static_cast<std::size_t>(status.job_class);
  queue_ms[k].push_back(status.queue_seconds * 1e3);
  run_ms[k].push_back(status.run_seconds * 1e3);
  present = true;
}

void annotate_campaign(Tracer::Scope& span, const ffr::fault::CampaignResult& result,
                       std::size_t threads) {
  std::uint64_t lane_slots = 0;
  for (const ffr::fault::PassShapeCount& shape : result.pass_histogram) {
    lane_slots += shape.passes * shape.lanes();
  }
  span.attr("passes", static_cast<double>(result.total_sim_passes));
  span.attr("cycles_simulated", static_cast<double>(result.cycles_simulated));
  span.attr("ops_evaluated", static_cast<double>(result.ops_evaluated));
  span.attr("checkpoint_restores", static_cast<double>(result.checkpoint_restores));
  span.attr("injections", static_cast<double>(result.total_injections));
  span.attr("lane_fill", lane_slots == 0 ? 0.0
                                         : static_cast<double>(result.total_injections) /
                                               static_cast<double>(lane_slots));
  span.attr("threads", static_cast<double>(threads));
}

std::string pass_shape(const ffr::fault::CampaignResult& result) {
  const std::size_t blocks = std::max<std::size_t>(result.blocks_per_pass, 1);
  return std::to_string(result.lanes_per_pass / blocks) + "x" + std::to_string(blocks);
}

bool same_campaign(const ffr::fault::CampaignResult& a,
                   const ffr::fault::CampaignResult& b) {
  if (a.per_ff.size() != b.per_ff.size() || a.total_injections != b.total_injections ||
      a.total_sim_passes != b.total_sim_passes ||
      a.cycles_simulated != b.cycles_simulated || a.ops_evaluated != b.ops_evaluated ||
      a.checkpoint_restores != b.checkpoint_restores) {
    return false;
  }
  for (std::size_t i = 0; i < a.per_ff.size(); ++i) {
    if (a.per_ff[i].ff_index != b.per_ff[i].ff_index ||
        a.per_ff[i].injections != b.per_ff[i].injections ||
        a.per_ff[i].classes.counts != b.per_ff[i].classes.counts) {
      return false;
    }
  }
  return true;
}

namespace {

std::optional<double> median_of(const std::vector<const Span*>& spans,
                                const std::string& attr = {}) {
  std::vector<double> values;
  for (const Span* span : spans) {
    if (attr.empty()) {
      values.push_back(span->seconds());
    } else if (auto it = span->attrs.find(attr); it != span->attrs.end()) {
      values.push_back(it->second);
    }
  }
  if (values.empty()) return std::nullopt;
  return median(std::move(values));
}

// ns of wall time per evaluated op, scaled by the worker count.
std::optional<double> op_ns(const std::vector<const Span*>& spans) {
  std::vector<double> values;
  for (const Span* span : spans) {
    const double ops = span->attrs.at("ops_evaluated");
    if (ops > 0) values.push_back(span->seconds() * span->attrs.at("threads") * 1e9 / ops);
  }
  if (values.empty()) return std::nullopt;
  return median(std::move(values));
}

}  // namespace

void fill_layer_metrics(const Tracer& tracer, std::string_view phase,
                        const ServiceObservation* service, Report& report) {
  const auto put = [&](const std::string& name, std::optional<double> value,
                       const char* unit) {
    if (value) report.fill(name, *value, unit);
  };
  const auto spans = [&](std::string_view name) { return tracer.find(name, phase); };

  const auto build = spans("sim.engine_build");
  put("sim.engine_build_s", median_of(build), "s");
  put("sim.golden_cycles", median_of(build, "cycles"), "count");

  const auto run = spans("fault.run");
  put("fault.run_s", median_of(run), "s");
  for (const char* counter :
       {"passes", "cycles_simulated", "ops_evaluated", "checkpoint_restores"}) {
    put(std::string("fault.") + counter, median_of(run, counter), "count");
  }
  put("fault.lane_fill", median_of(run, "lane_fill"), "ratio");
  put("fault.op_ns", op_ns(run), "ns");

  for (const int blocks : {1, 2, 4, 8}) {
    const auto sweep = spans("fault.sweep.b" + std::to_string(blocks));
    const std::string prefix = "fault.sweep_b" + std::to_string(blocks) + ".";
    put(prefix + "run_s", median_of(sweep), "s");
    put(prefix + "op_ns", op_ns(sweep), "ns");
    put(prefix + "lane_fill", median_of(sweep, "lane_fill"), "ratio");
  }

  put("features.extract_s", median_of(spans("features.extract")), "s");
  put("ml.fit_s", median_of(spans("ml.fit")), "s");
  put("ml.predict_s", median_of(spans("ml.predict")), "s");

  const auto flow = spans("core.flow");
  put("core.flow_golden_s", median_of(flow, "golden_s"), "s");
  put("core.flow_campaign_s", median_of(flow, "campaign_s"), "s");
  put("core.flow_training_s", median_of(flow, "training_s"), "s");

  put("service.hash_s", median_of(spans("service.hash")), "s");
  put("service.acquire_s", median_of(spans("service.acquire")), "s");

  if (service == nullptr || !service->present) return;
  for (const auto job_class :
       {ffr::service::JobClass::kPredict, ffr::service::JobClass::kCampaign}) {
    const auto k = static_cast<std::size_t>(job_class);
    const std::string suffix = std::string(".") + ffr::service::to_string(job_class);
    if (!service->queue_ms[k].empty()) {
      put("service.queue_wait_ms" + suffix, median(service->queue_ms[k]), "ms");
      put("service.run_ms" + suffix, median(service->run_ms[k]), "ms");
    }
  }
  const ffr::service::MetricsSnapshot& snap = service->snapshot;
  const double lookups = static_cast<double>(snap.cache_hits + snap.cache_misses);
  put("service.cache_hits", static_cast<double>(snap.cache_hits), "count");
  put("service.cache_misses", static_cast<double>(snap.cache_misses), "count");
  put("service.engine_builds", static_cast<double>(snap.engine_builds), "count");
  put("service.hit_ratio",
      lookups > 0 ? static_cast<double>(snap.cache_hits) / lookups : 0.0, "ratio");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string fingerprint(const Report& report) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::string isa;
#ifdef __AVX2__
  isa += "avx2 ";
#endif
#ifdef __AVX512F__
  isa += "avx512f ";
#endif
  if (isa.empty()) isa = "baseline ";
  isa.pop_back();
  std::ostringstream out;
  out << "cpu=\"" << cpu << "\" nproc=" << std::thread::hardware_concurrency()
      << " native_lanes=" << ffr::sim::to_string(ffr::sim::native_lane_width())
      << " pass=" << report.pass_shape << " threads=" << kThreads
      << " workers=" << kWorkers << " compiler=\"" << __VERSION__ << "\" isa=" << isa;
  return out.str();
}

}  // namespace perfbench
