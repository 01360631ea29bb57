#include <unistd.h>

#include <memory>
#include <vector>

#include "circuits/relay_core.hpp"
#include "core/transfer_flow.hpp"
#include "fault/engine.hpp"
#include "features/extractor.hpp"
#include "ml/model_zoo.hpp"
#include "service/content_hash.hpp"
#include "service/engine_registry.hpp"
#include "service/job_queue.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ffr;

std::filesystem::path scratch_file(const Options& options, const std::string& stem) {
  return options.out_dir / (stem + "-" + std::to_string(::getpid()) + ".txt");
}

namespace {

// Eight small predicts and eight 8-FF x 16-injection campaigns on kWorkers workers.
ServiceObservation service_round(const WalkInput& input,
                                 const features::FeatureMatrix& features,
                                 const Options& options) {
  const netlist::Netlist& nl = *input.netlist;
  std::filesystem::path model_path = input.model_path;
  std::unique_ptr<TempFile> trained;
  if (model_path.empty()) {
    trained = std::make_unique<TempFile>(scratch_file(options, "walk-model"));
    const std::vector<core::TransferSample> samples = {
        {nl.name(), features, input.fdr}};
    core::train_transfer_model(samples, {}).save(trained->path);
    model_path = trained->path;
  }
  service::FfrService service({kWorkers, {}});
  std::vector<service::JobId> ids;
  for (std::size_t i = 0; i < 8; ++i) {
    ids.push_back(service.submit_predict(model_path, nl, *input.testbench));
    fault::CampaignConfig config;
    config.injections_per_ff = 16;
    config.seed = input.flow.seed + i;
    config.num_threads = 1;
    config.lane_width = sim::LaneWidth::k64;
    for (std::size_t f = 0; f < 8; ++f) {
      config.ff_subset.push_back((8 * i + f) % nl.num_flip_flops());
    }
    ids.push_back(service.submit_campaign(nl, *input.testbench, config));
  }
  service.wait_all();
  ServiceObservation observed;
  for (const service::JobId id : ids) observed.add(service.status(id));
  observed.snapshot = service.metrics().snapshot();
  return observed;
}

// blocks_per_pass in {1, 2, 4, 8} on relay_core at native width: recorded
// per-layer rows for the multi-block cost question, never end-to-end.
void block_sweep(std::uint64_t seed, Tracer& tracer) {
  const circuits::RelayCore relay = circuits::build_relay_core();
  const circuits::RelayTestbench bench = circuits::build_relay_testbench(relay);
  const fault::CampaignEngine engine(relay.netlist, bench.tb);
  for (const std::size_t blocks : {1, 2, 4, 8}) {
    fault::CampaignConfig config;
    config.seed = seed;
    config.num_threads = kThreads;
    config.blocks_per_pass = blocks;
    Tracer::Scope span(tracer, "fault.sweep.b" + std::to_string(blocks));
    const fault::CampaignResult result = engine.run(config);
    annotate_campaign(span, result, kThreads);
  }
}

}  // namespace

void walk_layers(const WalkInput& input, const Options& options, Tracer& tracer,
                 Report& report) {
  const netlist::Netlist& nl = *input.netlist;
  const sim::Testbench& tb = *input.testbench;
  tracer.set_phase("walk");

  {
    Tracer::Scope span(tracer, "service.hash");
    (void)service::content_hash(nl, tb);
  }
  service::ServiceMetrics registry_metrics;
  service::EngineRegistry registry({}, &registry_metrics);
  {
    Tracer::Scope span(tracer, "service.acquire_cold");
    (void)registry.acquire(nl, tb);
  }
  for (int i = 0; i < 3; ++i) {  // service.acquire_s is the hit path
    Tracer::Scope span(tracer, "service.acquire");
    (void)registry.acquire(nl, tb);
  }

  std::unique_ptr<fault::CampaignEngine> engine;
  {
    Tracer::Scope span(tracer, "sim.engine_build");
    span.attr("cycles", static_cast<double>(tb.stimulus.num_cycles()));
    engine = std::make_unique<fault::CampaignEngine>(nl, tb);
  }
  features::FeatureMatrix features;
  {
    Tracer::Scope span(tracer, "features.extract");
    features = features::extract_features(nl, engine->golden().activity);
  }
  core::FlowResult flow;
  {
    Tracer::Scope span(tracer, "core.flow");
    flow = core::run_estimation_flow(*engine, input.flow);
    span.attr("golden_s", flow.golden_seconds);
    span.attr("campaign_s", flow.campaign_seconds);
    span.attr("training_s", flow.training_seconds);
  }
  {
    fault::CampaignConfig config;
    config.injections_per_ff = input.flow.injections_per_ff;
    config.seed = input.flow.seed;
    config.num_threads = input.flow.num_threads;
    config.ff_subset = flow.train_indices;
    Tracer::Scope span(tracer, "fault.run");
    const fault::CampaignResult result = engine->run(config);
    annotate_campaign(span, result, input.flow.num_threads);
  }
  std::unique_ptr<ml::Regressor> model = ml::make_model(input.flow.model);
  {
    Tracer::Scope span(tracer, "ml.fit");
    model->fit(features.values.select_rows(flow.train_indices), flow.train_fdr);
  }
  {
    Tracer::Scope span(tracer, "ml.predict");
    (void)model->predict(features.values);
  }
  ServiceObservation observed;
  if (input.service_round) observed = service_round(input, features, options);

  tracer.set_phase("sweep");
  block_sweep(input.flow.seed, tracer);

  fill_layer_metrics(tracer, "walk", &observed, report);
  fill_layer_metrics(tracer, "sweep", nullptr, report);
}

}  // namespace perfbench
