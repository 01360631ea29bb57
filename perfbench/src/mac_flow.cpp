// mac_flow: the paper's Fig. 1 flow run cold on mac_core. The process-wide
// engine registry is cleared before every call, so each flow pays content
// hash, golden run, features, partial campaign, fit and predict. Configs
// cycle through training size {0.2, 0.5} x model {knn_paper, svr_paper}.
// Every flow must reproduce its config's warm-up flow bit for bit; the
// warm-up flows are checked against a full reference campaign built here.

#include <algorithm>
#include <memory>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "fault/engine.hpp"
#include "service/engine_registry.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ffr;

namespace {

constexpr std::size_t kSetupRuns = 10;
constexpr std::size_t kSetupRunsPerFlow = 4;

struct MacDesign {
  circuits::MacCore core;
  circuits::MacTestbench bench;
};

// The flow's own invariants against the reference campaign: measured FDR on
// the training flip-flops equals the reference, every FDR lies in [0, 1].
bool flow_matches_reference(const core::FlowResult& flow,
                            const fault::CampaignResult& reference) {
  if (flow.train_fdr.size() != flow.train_indices.size()) return false;
  for (std::size_t t = 0; t < flow.train_indices.size(); ++t) {
    if (flow.train_fdr[t] != reference.per_ff.at(flow.train_indices[t]).fdr()) {
      return false;
    }
  }
  return std::all_of(flow.fdr.begin(), flow.fdr.end(),
                     [](double v) { return v >= 0.0 && v <= 1.0; });
}

bool same_flow(const core::FlowResult& a, const core::FlowResult& b) {
  return a.train_indices == b.train_indices && a.fdr == b.fdr &&
         a.injections_spent == b.injections_spent;
}

}  // namespace

Report run_mac_flow(const Options& options, Tracer& tracer) {
  Report report;
  // Set-ups are sampled into `spare` before and between the timed flows;
  // the flows run on `design`.
  std::unique_ptr<MacDesign> spare;
  const auto setup_once = [&] {
    spare.reset();
    const auto start = Clock::now();
    spare = std::make_unique<MacDesign>();
    spare->core = circuits::build_mac_core();
    spare->bench = circuits::build_mac_testbench(spare->core);
    return seconds_since(start);
  };
  SetupTimer setup;
  setup.warm_up(setup_once);
  setup.sample(setup_once, kSetupRuns);
  const std::unique_ptr<MacDesign> design = std::move(spare);
  const netlist::Netlist& nl = design->core.netlist;
  const sim::Testbench& tb = design->bench.tb;
  const std::uint64_t seed = derive_seed(options.seed, 1);

  // The benchmark's own ground truth: a fresh full campaign, same seed.
  fault::CampaignResult reference;
  {
    fault::CampaignConfig config;
    config.seed = seed;
    config.num_threads = kThreads;
    reference = fault::CampaignEngine(nl, tb).run(config);
  }
  report.pass_shape = pass_shape(reference);

  std::vector<core::FlowConfig> configs;
  for (const double training_size : {0.2, 0.5}) {
    for (const char* model : {"knn_paper", "svr_paper"}) {
      core::FlowConfig config;
      config.training_size = training_size;
      config.model = model;
      config.seed = seed;
      config.num_threads = kThreads;
      configs.push_back(config);
    }
  }

  const auto cold_flow = [&](const core::FlowConfig& config, double& seconds) {
    service::default_engine_registry().clear();
    const auto start = Clock::now();
    core::FlowResult flow;
    {
      Tracer::Scope span(tracer, "core.flow");
      flow = core::run_estimation_flow(nl, tb, config);
      span.attr("golden_s", flow.golden_seconds);
      span.attr("campaign_s", flow.campaign_seconds);
      span.attr("training_s", flow.training_seconds);
    }
    seconds = seconds_since(start);
    return flow;
  };

  // Warm-up round: one flow per config, the baseline every timed flow of
  // that config must reproduce, checked against the reference campaign.
  std::vector<core::FlowResult> baseline;
  std::vector<bool> valid;
  double mae = 0.0;
  for (std::size_t k = 0; k < configs.size(); ++k) {
    double ignored = 0.0;
    baseline.push_back(cold_flow(configs[k], ignored));
    valid.push_back(flow_matches_reference(baseline[k], reference));
    report.check(valid[k], "mac_flow: config " + std::to_string(k) +
                               " disagrees with the reference campaign");
    mae += core::score_against_campaign(baseline[k], reference).mae /
           static_cast<double>(configs.size());
  }

  std::uint64_t mismatches = 0;
  const auto timed_rounds = [&](double seconds) {
    std::vector<std::vector<double>> times(configs.size());
    const auto begin = Clock::now();
    do {
      for (std::size_t k = 0; k < configs.size(); ++k) {
        double elapsed = 0.0;
        const core::FlowResult flow = cold_flow(configs[k], elapsed);
        times[k].push_back(elapsed);
        ++report.attempted;
        if (!valid[k] || !same_flow(flow, baseline[k])) ++mismatches;
        setup.sample(setup_once, kSetupRunsPerFlow);
      }
    } while (seconds_since(begin) < seconds);
    return times;
  };
  // Mean over configs of the per-config median (and tail).
  const auto per_config = [](const std::vector<std::vector<double>>& times, auto stat) {
    double sum = 0.0;
    for (const auto& t : times) sum += stat(t);
    return sum / static_cast<double>(times.size());
  };
  const auto med = [](const std::vector<double>& t) { return median(t); };

  std::vector<std::vector<double>> times;
  if (options.trace) {
    tracer.set_enabled(false);
    const auto plain = timed_rounds(options.seconds / 2);
    tracer.set_enabled(true);
    times = timed_rounds(options.seconds / 2);
    report.set("trace.overhead_pct",
               (per_config(times, med) / per_config(plain, med) - 1.0) * 100.0, "%");
  } else {
    times = timed_rounds(options.seconds);
  }
  service::default_engine_registry().clear();

  report.failed += mismatches;
  report.check(mismatches == 0, "mac_flow: a flow differs from its config's warm-up flow");

  std::size_t flows = 0;
  for (const auto& t : times) flows += t.size();
  std::uint64_t round_injections = 0;
  for (const core::FlowResult& flow : baseline) round_injections += flow.injections_spent;
  const double flow_s = per_config(times, med);
  report.set("flow_s", flow_s, "s");
  report.set("flow_mae", mae, "fdr");
  report.set("flows", static_cast<double>(flows), "count");
  report.set("flow_round_injections", static_cast<double>(round_injections), "count");

  if (!options.trace) {
    report.set("latency_ms", flow_s * 1e3, "ms");
    report.set("tail_ms", per_config(times, [](const auto& t) { return tail(t); }) * 1e3,
               "ms");
    // Per-flip-flop FDR estimates delivered per second of flow time: the
    // median over rounds (one flow of each config), so one flow slowed by
    // the host does not move it.
    std::vector<double> per_round;
    for (std::size_t r = 0; r < times.front().size(); ++r) {
      double round_s = 0.0;
      for (const auto& t : times) round_s += t[r];
      per_round.push_back(static_cast<double>(nl.num_flip_flops() * times.size()) / round_s);
    }
    report.set("throughput_per_s", median(per_round), "1/s");
    report.set("setup_s", setup.seconds(), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return report;
  }
  fill_layer_metrics(tracer, "main", nullptr, report);
  WalkInput walk;
  walk.netlist = &nl;
  walk.testbench = &tb;
  walk.flow = configs.front();
  walk.fdr = reference.fdr_vector();
  walk_layers(walk, options, tracer, report);
  return report;
}

}  // namespace perfbench
