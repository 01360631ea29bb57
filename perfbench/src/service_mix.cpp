// service_mix: a closed loop against one FfrService (2 workers). One driver
// thread keeps 2 requests in flight, retiring them oldest first. Requests
// are drawn from the workload seed:
//   80% predicts on the warm relay_core / mac_core designs,
//   15% small campaigns (8 FFs x 16 injections, 64 lanes, 1 thread),
//   5%  predicts on never-seen designs (pipeline_core with a fresh
//       testbench seed), so the registry misses and builds an engine.
// The transfer model is trained in setup on mac_core + pipeline_core and
// saved to a scratch file removed on exit. Latency is queue + run time from
// JobStatus. Every predict must equal a direct TransferModel::predict, every
// campaign a direct CampaignEngine::run of the same config.

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "circuits/pipeline_core.hpp"
#include "circuits/relay_core.hpp"
#include "core/transfer_flow.hpp"
#include "fault/engine.hpp"
#include "features/extractor.hpp"
#include "service/content_hash.hpp"
#include "service/job_queue.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ffr;

namespace {

constexpr std::size_t kSetupRuns = 3;
constexpr std::size_t kMinRequests = 200;
constexpr std::size_t kRateWindow = 40;  // one shuffled block of the request mix
constexpr std::size_t kReplayWindow = 100;  // replays sample the first requests
constexpr std::size_t kReplaySample = 24;
constexpr std::size_t kWarmDesigns = 2;

struct Designs {
  circuits::RelayCore relay;
  circuits::RelayTestbench relay_bench;
  circuits::MacCore mac;
  circuits::MacTestbench mac_bench;
  circuits::PipelineCore pipe;
  circuits::PipelineTestbench pipe_bench;
};

// Declared after the designs its jobs reference, so it drains first.
struct Setup {
  Designs designs;
  std::unique_ptr<service::FfrService> service;
};

std::unique_ptr<Setup> build_setup(const std::filesystem::path& model_path,
                                   std::uint64_t seed, Tracer& tracer) {
  auto setup = std::make_unique<Setup>();
  Designs& d = setup->designs;
  d.relay = circuits::build_relay_core();
  d.relay_bench = circuits::build_relay_testbench(d.relay);
  d.mac = circuits::build_mac_core();
  d.mac_bench = circuits::build_mac_testbench(d.mac);
  d.pipe = circuits::build_pipeline_core();
  d.pipe_bench = circuits::build_pipeline_testbench(d.pipe);

  core::TransferConfig train;
  train.seed = seed;
  train.num_threads = kThreads;
  std::vector<core::TransferSample> samples;
  for (const auto& [nl, tb] : {std::pair{&d.mac.netlist, &d.mac_bench.tb},
                               std::pair{&d.pipe.netlist, &d.pipe_bench.tb}}) {
    Tracer::Scope span(tracer, "core.gather_sample");
    samples.push_back(core::gather_transfer_sample(*nl, *tb, train));
  }
  {
    Tracer::Scope span(tracer, "ml.fit");
    const core::TransferModel model = core::train_transfer_model(samples, train);
    model.save(model_path);
  }

  setup->service = std::make_unique<service::FfrService>(
      service::ServiceConfig{kWorkers, {}});
  (void)setup->service->model(model_path);
  (void)setup->service->registry().acquire(d.relay.netlist, d.relay_bench.tb);
  (void)setup->service->registry().acquire(d.mac.netlist, d.mac_bench.tb);
  return setup;
}

enum class Kind { kWarmPredict, kCampaign, kColdPredict };

struct Request {
  Kind kind = Kind::kWarmPredict;
  const netlist::Netlist* nl = nullptr;
  const sim::Testbench* tb = nullptr;
  std::unique_ptr<sim::Testbench> cold_tb;  ///< Owns `tb` for cold predicts.
  fault::CampaignConfig campaign;
  service::JobId id = 0;
  service::JobStatus status;

  [[nodiscard]] double latency_ms() const {
    return (status.queue_seconds + status.run_seconds) * 1e3;
  }
};

// The seeded request sequence; the library only sees the generated inputs.
// Requests come in shuffled blocks of 40 with exact shares — 16 relay and 16
// mac predicts, 3 campaigns on each design, 2 cold predicts — so every run
// serves the same mix and only the order and the request contents vary.
class RequestStream {
 public:
  RequestStream(const Designs& designs, std::uint64_t seed)
      : d_(designs), rng_(seed) {}

  Request next() {
    if (block_.empty()) refill();
    const Slot slot = block_.back();
    block_.pop_back();
    Request r;
    r.nl = slot.relay ? &d_.relay.netlist : &d_.mac.netlist;
    r.tb = slot.relay ? &d_.relay_bench.tb : &d_.mac_bench.tb;
    r.kind = slot.kind;
    if (r.kind == Kind::kWarmPredict) return r;
    if (r.kind == Kind::kCampaign) {
      r.campaign.injections_per_ff = 16;
      r.campaign.seed = rng_();
      r.campaign.num_threads = 1;
      r.campaign.lane_width = sim::LaneWidth::k64;
      r.campaign.ff_subset = rng_.sample_without_replacement(r.nl->num_flip_flops(), 8);
      std::sort(r.campaign.ff_subset.begin(), r.campaign.ff_subset.end());
      return r;
    }
    r.cold_tb = std::make_unique<sim::Testbench>(
        circuits::build_pipeline_testbench(d_.pipe, 96, 0.7, rng_()).tb);
    r.nl = &d_.pipe.netlist;
    r.tb = r.cold_tb.get();
    return r;
  }

 private:
  struct Slot {
    Kind kind;
    bool relay;
  };

  void refill() {
    for (const bool relay : {true, false}) {
      block_.insert(block_.end(), 16, Slot{Kind::kWarmPredict, relay});
      block_.insert(block_.end(), 3, Slot{Kind::kCampaign, relay});
      block_.push_back(Slot{Kind::kColdPredict, relay});
    }
    rng_.shuffle(block_);
  }

  const Designs& d_;
  util::Rng rng_;
  std::vector<Slot> block_;
};

}  // namespace

Report run_service_mix(const Options& options, Tracer& tracer) {
  Report report;
  report.pass_shape = "64x1";  // campaign requests pin 64 lanes
  const TempFile model_file(scratch_file(options, "service-model"));
  const std::uint64_t seed = derive_seed(options.seed, 1);

  // Declared before the service so that, on every exit path, the service
  // drains its jobs before the cold testbenches they read are destroyed.
  std::deque<Request> requests;
  std::unique_ptr<Setup> setup;
  const auto setup_once = [&] {
    setup.reset();
    const auto start = Clock::now();
    setup = build_setup(model_file.path, seed, tracer);
    return seconds_since(start);
  };
  SetupTimer setup_timer;
  setup_timer.warm_up(setup_once);
  setup_timer.sample(setup_once, kSetupRuns);
  const Designs& d = setup->designs;
  service::FfrService& service = *setup->service;

  RequestStream stream(d, derive_seed(options.seed, 2));
  ServiceObservation observed;
  // Runs the closed loop, appending to `requests`; returns the time of each
  // completion, in seconds from the start of the loop.
  const auto closed_loop = [&](double seconds, std::size_t min_requests) {
    std::deque<std::size_t> window;
    std::vector<double> completed;
    bool stop = false;
    const auto begin = Clock::now();
    for (;;) {
      while (!stop && window.size() < kInFlight) {
        requests.push_back(stream.next());
        Request& r = requests.back();
        Tracer::Scope span(tracer, "service.submit", requests.size() - 1);
        r.id = r.kind == Kind::kCampaign
                   ? service.submit_campaign(*r.nl, *r.tb, r.campaign)
                   : service.submit_predict(model_file.path, *r.nl, *r.tb);
        window.push_back(requests.size() - 1);
      }
      if (window.empty()) break;
      Request& r = requests[window.front()];
      window.pop_front();
      r.status = service.wait(r.id);
      observed.add(r.status);
      completed.push_back(seconds_since(begin));
      if (completed.back() >= seconds && completed.size() >= min_requests) stop = true;
    }
    return completed;
  };
  // Median over consecutive windows of one request block of completions per
  // second, so a stretch slowed by the host does not move it.
  const auto windowed_rate = [](const std::vector<double>& completed) {
    std::vector<double> rates;
    double start = 0.0;
    for (std::size_t end = kRateWindow; end <= completed.size(); end += kRateWindow) {
      rates.push_back(static_cast<double>(kRateWindow) / (completed[end - 1] - start));
      start = completed[end - 1];
    }
    return median(std::move(rates));
  };
  const auto latencies = [&](std::size_t begin, std::size_t end) {
    std::vector<double> ms;
    for (std::size_t i = begin; i < end; ++i) ms.push_back(requests[i].latency_ms());
    return ms;
  };

  std::vector<double> latency;
  std::vector<double> completed;
  if (options.trace) {
    tracer.set_enabled(false);
    (void)closed_loop(options.seconds / 2, kMinRequests / 2);
    const std::size_t untraced = requests.size();
    tracer.set_enabled(true);
    completed = closed_loop(options.seconds / 2, kMinRequests / 2);
    latency = latencies(untraced, requests.size());
    report.set("trace.overhead_pct",
               (median(latency) / median(latencies(0, untraced)) - 1.0) * 100.0, "%");
  } else {
    completed = closed_loop(options.seconds, kMinRequests);
    latency = latencies(0, requests.size());
  }
  observed.snapshot = service.metrics().snapshot();
  const service::MetricsSnapshot& snap = observed.snapshot;

  // Checks, outside the timed region.
  const core::TransferModel model = core::TransferModel::load(model_file.path);
  std::map<const netlist::Netlist*, linalg::Vector> warm_expected;
  std::map<const netlist::Netlist*, std::unique_ptr<fault::CampaignEngine>> engines;
  std::size_t cold = 0;
  for (const Request& r : requests) {
    ++report.attempted;
    bool ok = r.status.state == service::JobState::kDone;
    if (ok && r.kind == Kind::kCampaign) {
      auto& engine = engines[r.nl];
      if (!engine) engine = std::make_unique<fault::CampaignEngine>(*r.nl, *r.tb);
      ok = same_campaign(service.campaign_result(r.id), engine->run(r.campaign));
    } else if (ok && r.kind == Kind::kWarmPredict) {
      auto [it, fresh] = warm_expected.try_emplace(r.nl);
      if (fresh) it->second = model.predict(*r.nl, *r.tb);
      ok = service.prediction(r.id) == it->second;
    } else if (ok) {
      ++cold;
      ok = service.prediction(r.id) == model.predict(*r.nl, *r.tb);
    }
    if (!ok) ++report.failed;
  }
  report.check(report.failed == 0,
               "service_mix: " + std::to_string(report.failed) +
                   " requests failed or disagree with the direct library call");
  // Every request acquires once; only setup warm-ups and cold requests build.
  const std::uint64_t acquisitions = requests.size() + kWarmDesigns;
  const bool counts_ok =
      snap.cache_hits + snap.cache_misses == acquisitions &&
      snap.engine_builds == snap.cache_misses &&
      (snap.cache_evictions > 0 || snap.cache_misses == kWarmDesigns + cold);
  report.check(counts_ok, "service_mix: registry counters disagree with the request mix");
  if (!counts_ok) ++report.failed;

  const double p50 = median(latency);
  const double p95 = quantile(latency, 0.95);
  const double per_s = static_cast<double>(latency.size()) / completed.back();
  report.set("request_p50_ms", p50, "ms");
  report.set("request_p95_ms", p95, "ms");
  report.set("requests_per_s", per_s, "1/s");
  report.set("requests", static_cast<double>(requests.size()), "count");
  report.set("service.cache_hits", static_cast<double>(snap.cache_hits), "count");
  report.set("service.cache_misses", static_cast<double>(snap.cache_misses), "count");
  report.set("service.engine_builds", static_cast<double>(snap.engine_builds), "count");

  if (!options.trace) {
    report.set("latency_ms", p50, "ms");
    report.set("tail_ms", tail(latency), "ms");
    report.set("throughput_per_s", windowed_rate(completed), "1/s");
    report.set("setup_s", setup_timer.seconds(), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return report;
  }

  // Traced run: make the calls a job makes, directly, for a seeded sample of
  // the first requests plus every cold request among them.
  util::Rng rng(derive_seed(options.seed, 3));
  const std::size_t window = std::min(kReplayWindow, requests.size());
  std::set<std::size_t> replay;
  for (const std::size_t i :
       rng.sample_without_replacement(window, std::min(kReplaySample, window))) {
    replay.insert(i);
  }
  for (std::size_t i = 0; i < window; ++i) {
    if (requests[i].kind == Kind::kColdPredict) replay.insert(i);
  }
  const std::shared_ptr<const core::TransferModel> transfer =
      service.model(model_file.path);
  for (const std::size_t i : replay) {
    const Request& r = requests[i];
    {
      Tracer::Scope span(tracer, "service.hash", i);
      (void)service::content_hash(*r.nl, *r.tb);
    }
    std::shared_ptr<const fault::CampaignEngine> engine;
    {
      Tracer::Scope span(tracer, "service.acquire", i);
      engine = service.registry().acquire(*r.nl, *r.tb);
    }
    if (r.kind == Kind::kColdPredict) {
      Tracer::Scope span(tracer, "sim.engine_build", i);
      span.attr("cycles", static_cast<double>(r.tb->stimulus.num_cycles()));
      const fault::CampaignEngine rebuilt(*r.nl, *r.tb);
    }
    if (r.kind == Kind::kCampaign) {
      Tracer::Scope span(tracer, "fault.run", i);
      annotate_campaign(span, engine->run(r.campaign), r.campaign.num_threads);
      continue;
    }
    features::FeatureMatrix features;
    {
      Tracer::Scope span(tracer, "features.extract", i);
      features = features::extract_features(engine->netlist(), engine->golden().activity);
    }
    Tracer::Scope span(tracer, "ml.predict", i);
    (void)transfer->predict(features);
  }
  fill_layer_metrics(tracer, "main", &observed, report);

  WalkInput walk;
  walk.netlist = &d.mac.netlist;
  walk.testbench = &d.mac_bench.tb;
  walk.flow.seed = seed;
  walk.flow.num_threads = kThreads;
  walk.model_path = model_file.path;
  walk.service_round = false;
  walk_layers(walk, options, tracer, report);
  return report;
}

}  // namespace perfbench
