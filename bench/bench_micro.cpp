// Micro-benchmarks (google-benchmark): throughput of the substrates — the
// golden run, one wide incremental fault pass, the hold-link sweep,
// fault-injection batches, feature extraction, and the ML kernels (k-NN
// predict, SVR fit, linear fit) at workload scale.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "fault/campaign.hpp"
#include "fault/engine.hpp"
#include "features/extractor.hpp"
#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "ml/svr.hpp"
#include "sim/runner.hpp"
#include "sim/wide_runner.hpp"
#include "util/rng.hpp"

namespace {

using namespace ffr;

struct MicroContext {
  circuits::MacCore mac;
  circuits::MacTestbench bench;
  sim::GoldenResult golden;
  linalg::Matrix x;
  linalg::Vector y;
};

const MicroContext& micro_context() {
  static const MicroContext ctx = [] {
    MicroContext c;
    circuits::MacConfig mc;
    mc.tx_depth_log2 = 4;
    mc.rx_depth_log2 = 4;
    c.mac = circuits::build_mac_core(mc);
    circuits::MacTestbenchConfig tbc;
    tbc.num_frames = 5;
    c.bench = circuits::build_mac_testbench(c.mac, tbc);
    c.golden = sim::run_golden(c.mac.netlist, c.bench.tb);
    // Synthetic regression problem at campaign scale.
    util::Rng rng(1);
    const std::size_t n = 500;
    const std::size_t d = 25;
    c.x = linalg::Matrix(n, d);
    c.y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < d; ++j) c.x(i, j) = rng.normal();
      c.y[i] = std::tanh(c.x(i, 0)) + 0.2 * c.x(i, 1) * c.x(i, 2);
    }
    return c;
  }();
  return ctx;
}

void BM_GoldenRun(benchmark::State& state) {
  const auto& ctx = micro_context();
  for (auto _ : state) {
    auto result = sim::run_golden(ctx.mac.netlist, ctx.bench.tb);
    benchmark::DoNotOptimize(result.frames.size());
  }
  const double cells = static_cast<double>(ctx.mac.netlist.num_cells());
  const double cycles = static_cast<double>(ctx.bench.tb.stimulus.num_cycles());
  state.SetItemsProcessed(static_cast<std::int64_t>(
      cells * cycles * static_cast<double>(state.iterations())));
  state.counters["lane_evals/s"] = benchmark::Counter(
      cells * cycles * 64.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GoldenRun)->Unit(benchmark::kMillisecond);

/// The default mac_core campaign's inputs: golden checkpoints at the engine's
/// interval and the job of every hold-link representative, in the engine's
/// (checkpoint segment, flip-flop, cycle) order as it slices them into
/// passes.
struct PassContext {
  circuits::MacCore mac = circuits::build_mac_core();
  circuits::MacTestbench bench = circuits::build_mac_testbench(mac);
  sim::CompiledStimulus stimulus{mac.netlist, bench.tb};
  sim::GoldenCheckpoints checkpoints;
  std::vector<sim::LaneInjection> jobs;

  PassContext() {
    const fault::CampaignConfig config;
    checkpoints.interval = fault::kCheckpointInterval;
    (void)sim::run_golden(stimulus, &checkpoints);
    // The links are the same at every lane width; sweep them at 64 lanes
    // over the engine's window.
    sim::HoldLinks links(mac.netlist.num_flip_flops(), bench.tb.inject_begin,
                         stimulus.num_cycles());
    sim::WideReplayRunner<1> sweeper(
        stimulus, checkpoints, sim::WideReplayRunner<1>::link_sweep_blocks(stimulus));
    (void)sweeper.sweep_links(links.window_begin, links.window_end, links);
    const auto ffs = mac.netlist.flip_flops();
    const std::vector<std::size_t> subset =
        fault::resolve_ff_subset(config, ffs.size());
    for (const fault::CampaignJob& job : fault::order_campaign_jobs(
             config, bench.tb, subset, checkpoints.interval, links)) {
      jobs.push_back({ffs[subset[job.task]], job.cycle, 0});
    }
  }
};

const PassContext& pass_context() {
  static const PassContext ctx;
  return ctx;
}

/// The host's native lane width, resolved as a kAuto campaign resolves it.
sim::LaneWidth native_width() {
  return sim::resolve_lane_width(sim::LaneWidth::kAuto).width;
}

template <std::size_t W>
void run_wide_incremental_pass(benchmark::State& state, std::size_t blocks) {
  const PassContext& ctx = pass_context();
  sim::WideReplayRunner<W> runner(ctx.stimulus, ctx.checkpoints, blocks);
  // A full pass from the middle of the segment-sorted job list.
  const std::size_t begin = (ctx.jobs.size() - runner.lanes()) / 2;
  std::vector<sim::LaneInjection> slice(ctx.jobs.begin() + begin,
                                        ctx.jobs.begin() + begin + runner.lanes());
  for (std::size_t lane = 0; lane < slice.size(); ++lane) {
    slice[lane].lane = static_cast<std::uint32_t>(lane);
  }
  std::uint64_t ops = 0;
  std::chrono::steady_clock::duration elapsed{};
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const sim::RunResult result = runner.run(slice);
    elapsed += std::chrono::steady_clock::now() - start;
    benchmark::DoNotOptimize(result.lane_frames.size());
    ops += result.ops_evaluated;
  }
  // Wall time per gate evaluation.
  const double ns = std::chrono::duration<double, std::nano>(elapsed).count();
  state.counters["ns/op"] = ns / static_cast<double>(ops);
}

/// One resumed, incremental, golden-relative fault pass on the default
/// mac_core at the native default shape (resolved lane width times the
/// default blocks_per_pass): the unit of work CampaignEngine::run repeats.
void BM_WideIncrementalPass(benchmark::State& state) {
  const PassContext& ctx = pass_context();
  const sim::LaneWidth width = native_width();
  const std::size_t lanes = sim::lanes_of(width);
  const std::size_t blocks =
      fault::resolve_blocks_per_pass(0, lanes, ctx.mac.netlist.num_nets());
  state.SetLabel(std::to_string(lanes) + "x" + std::to_string(blocks));
  sim::at_block_width(width, [&](auto tag) {
    run_wide_incremental_pass<decltype(tag)::value>(state, blocks);
  });
}
BENCHMARK(BM_WideIncrementalPass)->Unit(benchmark::kMillisecond);

template <std::size_t W>
void run_link_sweep(benchmark::State& state) {
  const PassContext& ctx = pass_context();
  sim::WideReplayRunner<W> runner(
      ctx.stimulus, ctx.checkpoints,
      sim::WideReplayRunner<W>::link_sweep_blocks(ctx.stimulus));
  state.SetLabel(std::to_string(W * 64) + "x" + std::to_string(runner.num_blocks()));
  std::uint64_t ops = 0;
  std::chrono::steady_clock::duration elapsed{};
  for (auto _ : state) {
    sim::HoldLinks links(ctx.mac.netlist.num_flip_flops(), ctx.bench.tb.inject_begin,
                         ctx.stimulus.num_cycles());
    const auto start = std::chrono::steady_clock::now();
    const sim::LinkSweepCost cost =
        runner.sweep_links(links.window_begin, links.window_end, links);
    elapsed += std::chrono::steady_clock::now() - start;
    benchmark::DoNotOptimize(links.links.data());
    benchmark::ClobberMemory();
    ops += cost.op_block_evals / runner.num_blocks();
  }
  // Wall time per gate evaluation, as BM_WideIncrementalPass reports it.
  const double ns = std::chrono::duration<double, std::nano>(elapsed).count();
  state.counters["ns/op"] = ns / static_cast<double>(ops);
}

/// One hold-link sweep of the default mac_core over the engine's window, on
/// one runner at the native width: the work CampaignEngine's first run()
/// adds, here on a single worker.
void BM_LinkSweep(benchmark::State& state) {
  sim::at_block_width(native_width(), [&](auto width) {
    run_link_sweep<decltype(width)::value>(state);
  });
}
BENCHMARK(BM_LinkSweep)->Unit(benchmark::kMillisecond);

void BM_FaultBatch64Lanes(benchmark::State& state) {
  const auto& ctx = micro_context();
  const auto ffs = ctx.mac.netlist.flip_flops();
  std::vector<sim::InjectionEvent> events;
  for (std::size_t lane = 0; lane < 64; ++lane) {
    events.push_back({ffs[lane % ffs.size()],
                      static_cast<std::uint32_t>(12 + lane),
                      sim::Lanes{1} << lane});
  }
  for (auto _ : state) {
    auto result = sim::run_testbench(ctx.mac.netlist, ctx.bench.tb, events);
    benchmark::DoNotOptimize(result.lane_frames[0].size());
  }
  state.counters["injections/s"] = benchmark::Counter(
      64.0 * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FaultBatch64Lanes)->Unit(benchmark::kMillisecond);

void BM_FeatureExtraction(benchmark::State& state) {
  const auto& ctx = micro_context();
  for (auto _ : state) {
    auto fm = features::extract_features(ctx.mac.netlist, ctx.golden.activity);
    benchmark::DoNotOptimize(fm.num_ffs());
  }
  state.counters["ffs/s"] = benchmark::Counter(
      static_cast<double>(ctx.mac.netlist.num_flip_flops()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FeatureExtraction)->Unit(benchmark::kMillisecond);

void BM_LinearFit(benchmark::State& state) {
  const auto& ctx = micro_context();
  for (auto _ : state) {
    ml::LinearLeastSquares model;
    model.fit(ctx.x, ctx.y);
    benchmark::DoNotOptimize(model.intercept());
  }
}
BENCHMARK(BM_LinearFit)->Unit(benchmark::kMillisecond);

void BM_KnnPredict(benchmark::State& state) {
  const auto& ctx = micro_context();
  ml::KnnRegressor model(3, 1.0, ml::KnnWeights::kDistance);
  model.fit(ctx.x, ctx.y);
  for (auto _ : state) {
    auto pred = model.predict(ctx.x);
    benchmark::DoNotOptimize(pred[0]);
  }
  state.counters["queries/s"] = benchmark::Counter(
      static_cast<double>(ctx.x.rows()) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KnnPredict)->Unit(benchmark::kMillisecond);

void BM_SvrFit(benchmark::State& state) {
  const auto& ctx = micro_context();
  ml::SvrConfig config;
  config.c = 3.5;
  config.gamma = 0.055;
  config.epsilon = 0.025;
  for (auto _ : state) {
    ml::SvrRegressor model(config);
    model.fit(ctx.x, ctx.y);
    benchmark::DoNotOptimize(model.num_support_vectors());
  }
}
BENCHMARK(BM_SvrFit)->Unit(benchmark::kMillisecond);

void BM_NetlistBuild(benchmark::State& state) {
  for (auto _ : state) {
    circuits::MacConfig mc;
    mc.tx_depth_log2 = 4;
    mc.rx_depth_log2 = 4;
    auto mac = circuits::build_mac_core(mc);
    benchmark::DoNotOptimize(mac.netlist.num_cells());
  }
}
BENCHMARK(BM_NetlistBuild)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
