// relay_campaign: the paper-scale SFI campaign (1054 FFs x 170 injections on
// relay_core), engine built once in setup and CampaignEngine::run repeated.
// Every repeat must reproduce the warm-up result bit for bit (class counts
// and cost counters); the warm-up itself is checked against the flat
// fault::run_campaign on a seeded sample of flip-flops.

#include <algorithm>
#include <memory>
#include <numeric>

#include "circuits/relay_core.hpp"
#include "fault/engine.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ffr;

namespace {

constexpr std::size_t kSetupRuns = 10;
constexpr std::size_t kSetupRunsPerCampaign = 4;
constexpr std::size_t kFlatSampleFfs = 32;

struct RelayDesign {
  circuits::RelayCore core;
  circuits::RelayTestbench bench;
  std::unique_ptr<fault::CampaignEngine> engine;
};

std::unique_ptr<RelayDesign> build_design(Tracer& tracer) {
  auto design = std::make_unique<RelayDesign>();
  design->core = circuits::build_relay_core();
  design->bench = circuits::build_relay_testbench(design->core);
  Tracer::Scope span(tracer, "sim.engine_build");
  span.attr("cycles", static_cast<double>(design->bench.tb.stimulus.num_cycles()));
  design->engine =
      std::make_unique<fault::CampaignEngine>(design->core.netlist, design->bench.tb);
  return design;
}

}  // namespace

Report run_relay_campaign(const Options& options, Tracer& tracer) {
  Report report;
  // Set-ups are sampled into `spare` before and between the timed
  // campaigns; the campaigns run on `design`.
  std::unique_ptr<RelayDesign> spare;
  const auto setup_once = [&] {
    spare.reset();
    const auto start = Clock::now();
    spare = build_design(tracer);
    return seconds_since(start);
  };
  SetupTimer setup;
  setup.warm_up(setup_once);
  setup.sample(setup_once, kSetupRuns);
  const std::unique_ptr<RelayDesign> design = std::move(spare);
  const netlist::Netlist& nl = design->core.netlist;
  const sim::Testbench& tb = design->bench.tb;
  const fault::CampaignEngine& engine = *design->engine;

  fault::CampaignConfig config;
  config.seed = derive_seed(options.seed, 1);
  config.num_threads = kThreads;
  // Warm-up: fills lazy state (pools, checkpoints) and is the reference
  // every timed repeat must reproduce.
  const fault::CampaignResult reference = engine.run(config);
  report.pass_shape = pass_shape(reference);

  std::uint64_t mismatches = 0;
  const auto timed_runs = [&](double seconds) {
    std::vector<double> times;
    const auto begin = Clock::now();
    while (times.size() < 3 || seconds_since(begin) < seconds) {
      const auto start = Clock::now();
      fault::CampaignResult result;
      {
        Tracer::Scope span(tracer, "fault.run", times.size());
        result = engine.run(config);
        annotate_campaign(span, result, kThreads);
      }
      times.push_back(seconds_since(start));
      ++report.attempted;
      if (!same_campaign(result, reference)) ++mismatches;
      setup.sample(setup_once, kSetupRunsPerCampaign);
    }
    return times;
  };

  std::vector<double> times;
  if (options.trace) {
    tracer.set_enabled(false);
    const std::vector<double> plain = timed_runs(options.seconds / 2);
    tracer.set_enabled(true);
    times = timed_runs(options.seconds / 2);
    report.set("trace.overhead_pct", (median(times) / median(plain) - 1.0) * 100.0, "%");
  } else {
    times = timed_runs(options.seconds);
  }

  // Checks, outside the timed region.
  report.failed += mismatches;
  report.check(mismatches == 0, "relay_campaign: a repeat differs from the warm-up run");
  util::Rng rng(derive_seed(options.seed, 2));
  fault::CampaignConfig flat = config;
  flat.ff_subset = rng.sample_without_replacement(nl.num_flip_flops(), kFlatSampleFfs);
  std::sort(flat.ff_subset.begin(), flat.ff_subset.end());
  const fault::CampaignResult flat_result =
      fault::run_campaign(nl, tb, engine.golden(), flat);
  bool flat_ok = flat_result.per_ff.size() == flat.ff_subset.size();
  for (std::size_t i = 0; flat_ok && i < flat.ff_subset.size(); ++i) {
    const fault::FfResult& want = reference.per_ff[flat.ff_subset[i]];
    flat_ok = flat_result.per_ff[i].injections == want.injections &&
              flat_result.per_ff[i].classes.counts == want.classes.counts;
  }
  report.check(flat_ok, "relay_campaign: engine class counts differ from flat run_campaign");
  if (!flat_ok) report.failed = report.attempted;  // every repeat equals the reference

  const double total = std::accumulate(times.begin(), times.end(), 0.0);
  const double injections = static_cast<double>(reference.total_injections);
  report.set("campaign_s", median(times), "s");
  report.set("injections_per_s", injections * static_cast<double>(times.size()) / total,
             "1/s");
  report.set("fault.passes", static_cast<double>(reference.total_sim_passes), "count");
  report.set("fault.cycles_simulated", static_cast<double>(reference.cycles_simulated),
             "count");
  report.set("fault.ops_evaluated", static_cast<double>(reference.ops_evaluated), "count");
  report.set("fault.checkpoint_restores",
             static_cast<double>(reference.checkpoint_restores), "count");
  report.set("campaigns", static_cast<double>(times.size()), "count");

  if (!options.trace) {
    report.set("latency_ms", median(times) * 1e3, "ms");
    report.set("tail_ms", tail(times) * 1e3, "ms");
    // At the median campaign time, so one campaign slowed by the host does
    // not move it.
    report.set("throughput_per_s", injections / median(times), "1/s");
    report.set("setup_s", setup.seconds(), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return report;
  }
  fill_layer_metrics(tracer, "main", nullptr, report);
  WalkInput walk;
  walk.netlist = &nl;
  walk.testbench = &tb;
  walk.flow.seed = config.seed;
  walk.flow.num_threads = kThreads;
  walk.fdr = reference.fdr_vector();
  walk_layers(walk, options, tracer, report);
  return report;
}

}  // namespace perfbench
