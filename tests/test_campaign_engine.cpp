// Differential and determinism tests for the batched CampaignEngine
// (fault/engine.hpp): the engine must reproduce the flat run_campaign
// per-flip-flop results bit-exactly for the same seed, across circuits, and
// its output must be invariant under every threading / batching choice —
// scheduling can never change science output. Also covers the cached-golden
// estimation-flow overload, the engine golden against independent oracles,
// the WideReplayRunner reuse contract, the observable cone (which
// flip-flops it proves unobservable, and how a fault pass uses it) and the
// hold links: their exact bits on a hand-built circuit, and the collapse of
// every chain onto one lane.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "circuits/pipeline_core.hpp"
#include "core/estimation_flow.hpp"
#include "fault/campaign.hpp"
#include "fault/engine.hpp"
#include "netlist/builder.hpp"
#include "sim/reference_sim.hpp"
#include "sim/runner.hpp"
#include "sim/testbench.hpp"
#include "sim/wide_runner.hpp"

namespace ffr::fault {
namespace {

void expect_bit_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.per_ff.size(), b.per_ff.size());
  for (std::size_t i = 0; i < a.per_ff.size(); ++i) {
    EXPECT_EQ(a.per_ff[i].ff_index, b.per_ff[i].ff_index) << "ff " << i;
    EXPECT_EQ(a.per_ff[i].name, b.per_ff[i].name) << "ff " << i;
    EXPECT_EQ(a.per_ff[i].injections, b.per_ff[i].injections) << "ff " << i;
    EXPECT_EQ(a.per_ff[i].classes.counts, b.per_ff[i].classes.counts)
        << "ff " << i << " (" << a.per_ff[i].name << ")";
  }
  const auto fdr_a = a.fdr_vector();
  const auto fdr_b = b.fdr_vector();
  ASSERT_EQ(fdr_a.size(), fdr_b.size());
  for (std::size_t i = 0; i < fdr_a.size(); ++i) {
    // Bit-exact, not approximately equal: both sides divide identical
    // integer counts.
    EXPECT_EQ(fdr_a[i], fdr_b[i]) << "ff " << i;
  }
  EXPECT_EQ(a.total_injections, b.total_injections);
}

struct MacEngineFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    circuits::MacConfig mc;
    mc.tx_depth_log2 = 3;
    mc.rx_depth_log2 = 3;
    mac = new circuits::MacCore(circuits::build_mac_core(mc));
    circuits::MacTestbenchConfig tbc;
    tbc.num_frames = 3;
    tbc.min_payload = 8;
    tbc.max_payload = 16;
    tbc.seed = 5;
    bench = new circuits::MacTestbench(circuits::build_mac_testbench(*mac, tbc));
    engine = new CampaignEngine(mac->netlist, bench->tb);
  }
  static void TearDownTestSuite() {
    delete engine;
    engine = nullptr;
    delete bench;
    bench = nullptr;
    delete mac;
    mac = nullptr;
  }
  static circuits::MacCore* mac;
  static circuits::MacTestbench* bench;
  static CampaignEngine* engine;
};

circuits::MacCore* MacEngineFixture::mac = nullptr;
circuits::MacTestbench* MacEngineFixture::bench = nullptr;
CampaignEngine* MacEngineFixture::engine = nullptr;

/// Per-FF activity of the fault-free run on the naive ReferenceSimulator,
/// driven the way the runners drive a testbench: inputs and loopbacks set at
/// the top of each cycle, Q sampled after eval, loopbacks captured before the
/// clock edge.
sim::ActivityTrace reference_activity(const netlist::Netlist& nl,
                                      const sim::Testbench& tb) {
  sim::ReferenceSimulator reference(nl);
  const auto ffs = nl.flip_flops();
  const auto pis = nl.primary_inputs();
  sim::ActivityTrace trace;
  trace.cycles_at_1.assign(ffs.size(), 0);
  trace.state_changes.assign(ffs.size(), 0);
  std::vector<bool> prev_q(ffs.size());
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    prev_q[i] = reference.value(nl.cell(ffs[i]).output);
  }
  std::vector<bool> loop_values;
  for (const sim::Loopback& loop : tb.loopbacks) loop_values.push_back(loop.initial);
  for (std::size_t cycle = 0; cycle < tb.stimulus.num_cycles(); ++cycle) {
    for (std::size_t i = 0; i < pis.size(); ++i) {
      reference.set_input(pis[i], tb.stimulus.get(i, cycle));
    }
    for (std::size_t i = 0; i < tb.loopbacks.size(); ++i) {
      reference.set_input(tb.loopbacks[i].to_input, loop_values[i]);
    }
    reference.eval();
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      const bool q = reference.value(nl.cell(ffs[i]).output);
      trace.cycles_at_1[i] += q;
      trace.state_changes[i] += q != prev_q[i];
      prev_q[i] = q;
    }
    for (std::size_t i = 0; i < tb.loopbacks.size(); ++i) {
      loop_values[i] = reference.value(tb.loopbacks[i].from_net);
    }
    reference.tick();
  }
  trace.total_cycles = tb.stimulus.num_cycles();
  return trace;
}

TEST_F(MacEngineFixture, GoldenFramesMatchFlatOracleLaneZero) {
  // The engine golden and sim::run_golden share one path; check it against
  // the flat full-sweep oracle instead.
  const sim::RunResult flat = sim::run_testbench(mac->netlist, bench->tb);
  const sim::GoldenResult& golden = engine->golden();
  EXPECT_FALSE(golden.frames.empty());
  EXPECT_EQ(golden.frames, flat.lane_frames[0]);
  EXPECT_EQ(golden.eval_count, flat.eval_count);
  EXPECT_EQ(golden.activity.total_cycles, bench->tb.stimulus.num_cycles());
}

TEST_F(MacEngineFixture, GoldenActivityMatchesReferenceSimulator) {
  const sim::ActivityTrace want = reference_activity(mac->netlist, bench->tb);
  EXPECT_EQ(engine->golden().activity.cycles_at_1, want.cycles_at_1);
  EXPECT_EQ(engine->golden().activity.state_changes, want.state_changes);
}

TEST(PipelineEngine, GoldenActivityMatchesReferenceSimulator) {
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core);
  const CampaignEngine engine(core.netlist, bench.tb);
  const sim::ActivityTrace want = reference_activity(core.netlist, bench.tb);
  const sim::GoldenResult& golden = engine.golden();
  EXPECT_EQ(golden.activity.cycles_at_1, want.cycles_at_1);
  EXPECT_EQ(golden.activity.state_changes, want.state_changes);
  EXPECT_EQ(golden.activity.total_cycles, want.total_cycles);
  std::uint64_t changes = 0;
  for (const std::uint64_t c : want.state_changes) changes += c;
  EXPECT_GT(changes, 0u);
}

TEST_F(MacEngineFixture, BitExactWithFlatCampaignOnMac) {
  CampaignConfig config;
  config.injections_per_ff = 48;
  for (std::size_t i = 0; i < mac->netlist.num_flip_flops(); i += 9) {
    config.ff_subset.push_back(i);
  }
  const CampaignResult flat =
      run_campaign(mac->netlist, bench->tb, engine->golden(), config);
  const CampaignResult batched = engine->run(config);
  expect_bit_identical(flat, batched);
  EXPECT_GT(batched.collapsed_injections, 0u);
}

TEST_F(MacEngineFixture, PacksLanesAcrossFlipFlops) {
  CampaignConfig config;
  config.injections_per_ff = 48;  // flat: 1 pass per FF, 16 idle lanes each
  config.ff_subset = {0, 3, 7, 11, 20, 33, 40, 55};
  // Pin the scalar width: this test asserts 64-lane packing arithmetic, and
  // kAuto would pick a wider block on SIMD hosts.
  config.lane_width = sim::LaneWidth::k64;
  const CampaignResult flat =
      run_campaign(mac->netlist, bench->tb, engine->golden(), config);
  const CampaignResult batched = engine->run(config);
  // 8 x 48 = 384 injections: flat needs 8 passes. The engine answers 202 of
  // them without a lane (unobservable, or chained to a masked cycle) and 53
  // with another injection's lane, and packs the other 129 into
  // ceil(129/64) = 3 passes. The 64-lane scalar reference path never
  // re-shapes or multi-blocks its passes, so these counts are pinned exactly.
  EXPECT_EQ(flat.total_sim_passes, 8u);
  EXPECT_EQ(batched.proven_injections, 202u);
  EXPECT_EQ(batched.collapsed_injections, 53u);
  EXPECT_EQ(batched.total_sim_passes, 3u);
  EXPECT_EQ(batched.lanes_per_pass, 64u);
  EXPECT_EQ(batched.blocks_per_pass, 1u);
  ASSERT_EQ(batched.pass_histogram.size(), 1u);
  EXPECT_EQ(batched.pass_histogram[0].width, 64u);
  EXPECT_EQ(batched.pass_histogram[0].blocks, 1u);
  EXPECT_EQ(batched.pass_histogram[0].passes, 3u);
  expect_bit_identical(flat, batched);

  // Same campaign at whatever (width, blocks) shape the host resolves for
  // kAuto: the pass count follows the deterministic schedule, the science
  // does not.
  CampaignConfig wide = config;
  wide.lane_width = sim::LaneWidth::kAuto;
  const CampaignResult auto_width = engine->run(wide);
  const std::size_t auto_block_width =
      auto_width.lanes_per_pass / auto_width.blocks_per_pass;
  EXPECT_EQ(auto_width.total_sim_passes,
            build_pass_schedule(129, auto_block_width,
                                auto_width.blocks_per_pass)
                .size());
  expect_bit_identical(flat, auto_width);
}

TEST_F(MacEngineFixture, JobOrderIsSegmentThenFlipFlopThenCycle) {
  // run()'s pass order: every injection of the subset exactly once, sorted
  // by (checkpoint segment, subset position, cycle). The subset is given
  // out of flip-flop index order: the key is the position in the subset.
  CampaignConfig config;
  config.injections_per_ff = 40;
  const std::vector<std::size_t> subset = {90, 7, 33, 120};
  const std::size_t interval = engine->checkpoints().interval;
  const std::vector<CampaignJob> jobs =
      order_campaign_jobs(config, bench->tb, subset, interval, sim::HoldLinks{});
  ASSERT_EQ(jobs.size(), subset.size() * config.injections_per_ff);
  const auto key = [interval](const CampaignJob& job) {
    return std::tuple(job.cycle / interval, job.task, job.cycle);
  };
  EXPECT_TRUE(std::is_sorted(
      jobs.begin(), jobs.end(),
      [&](const CampaignJob& a, const CampaignJob& b) { return key(a) < key(b); }));
  for (std::size_t task = 0; task < subset.size(); ++task) {
    std::vector<std::size_t> want =
        injection_cycles(config, bench->tb, subset[task]);
    std::sort(want.begin(), want.end());
    std::vector<std::size_t> got;
    for (const CampaignJob& job : jobs) {
      if (job.task == task) got.push_back(job.cycle);
    }
    EXPECT_EQ(got, want) << "task " << task;
  }
  EXPECT_THROW(
      (void)order_campaign_jobs(config, bench->tb, subset, 0, sim::HoldLinks{}),
      std::invalid_argument);
}

TEST_F(MacEngineFixture, DeterministicAcrossThreads) {
  CampaignConfig base;
  base.injections_per_ff = 24;
  base.ff_subset = {1, 2, 5, 30, 60, 90, 120, 150};
  const CampaignResult reference = engine->run(base);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    CampaignConfig config = base;
    config.num_threads = threads;
    const CampaignResult result = engine->run(config);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_bit_identical(reference, result);
    EXPECT_EQ(result.total_sim_passes, reference.total_sim_passes);
  }
}

TEST_F(MacEngineFixture, SubsetOrderIndependent) {
  CampaignConfig config;
  config.injections_per_ff = 16;
  config.ff_subset = {7, 90};
  const CampaignResult a = engine->run(config);
  config.ff_subset = {90, 7, 33};
  const CampaignResult b = engine->run(config);
  EXPECT_EQ(a.per_ff[0].classes.counts, b.per_ff[1].classes.counts);  // ff 7
  EXPECT_EQ(a.per_ff[1].classes.counts, b.per_ff[0].classes.counts);  // ff 90
}

TEST_F(MacEngineFixture, FlowOverloadMatchesStandaloneFlow) {
  core::FlowConfig config;
  config.training_size = 0.25;
  config.injections_per_ff = 24;
  config.model = "knn_paper";
  const core::FlowResult standalone =
      core::run_estimation_flow(mac->netlist, bench->tb, config);
  const core::FlowResult reused = core::run_estimation_flow(*engine, config);
  ASSERT_EQ(standalone.fdr.size(), reused.fdr.size());
  for (std::size_t i = 0; i < standalone.fdr.size(); ++i) {
    EXPECT_EQ(standalone.fdr[i], reused.fdr[i]) << "ff " << i;
  }
  EXPECT_EQ(standalone.train_indices, reused.train_indices);
  EXPECT_EQ(standalone.injections_spent, reused.injections_spent);
}

TEST_F(MacEngineFixture, RepeatedFlowInvocationsReuseGoldenDeterministically) {
  core::FlowConfig config;
  config.training_size = 0.2;
  config.injections_per_ff = 16;
  const core::FlowResult a = core::run_estimation_flow(*engine, config);
  const core::FlowResult b = core::run_estimation_flow(*engine, config);
  ASSERT_EQ(a.fdr.size(), b.fdr.size());
  for (std::size_t i = 0; i < a.fdr.size(); ++i) {
    EXPECT_EQ(a.fdr[i], b.fdr[i]) << "ff " << i;
  }
}

TEST_F(MacEngineFixture, WideReplayRunnerIsBitExactAcrossReuse) {
  // The engine's per-worker runner reuse rests on this contract: a
  // WideReplayRunner's n-th run equals a fresh run_testbench with the same
  // schedule, including after interleaved fault runs and hold-link sweeps,
  // and its n-th sweep equals a fresh runner's. Lanes the runner flags as
  // golden deliver the golden frames.
  const sim::CompiledStimulus stimulus(mac->netlist, bench->tb);
  const sim::GoldenCheckpoints& ckpts = engine->checkpoints();
  // A sweep that starts off a checkpoint cycle and spans two segments.
  const std::size_t sweep_begin = bench->tb.inject_begin + 5;
  const std::size_t sweep_end = sweep_begin + 2 * ckpts.interval;
  const auto sweep = [&](sim::WideReplayRunner<1>& runner) {
    sim::HoldLinks links(mac->netlist.num_flip_flops(), sweep_begin, sweep_end);
    const sim::LinkSweepCost cost = runner.sweep_links(sweep_begin, sweep_end, links);
    return std::pair(links, cost);
  };
  sim::WideReplayRunner<1> runner(stimulus, ckpts);
  const sim::RunResult clean_first = runner.run();
  sim::LaneInjection ev;
  ev.ff_cell = mac->netlist.flip_flops()[3];
  ev.cycle = static_cast<std::uint32_t>(bench->tb.inject_begin + 5);
  ev.lane = 4;
  const sim::LaneInjection events[] = {ev};
  const sim::RunResult faulty = runner.run(events);
  const auto first_sweep = sweep(runner);
  const sim::RunResult faulty_again = runner.run(events);
  const auto second_sweep = sweep(runner);
  const sim::RunResult clean_again = runner.run();
  const sim::RunResult reference = sim::run_testbench(mac->netlist, bench->tb);
  const sim::InjectionEvent flat_events[] = {{ev.ff_cell, ev.cycle, sim::Lanes{1} << 4}};
  const sim::RunResult flat_faulty =
      sim::run_testbench(mac->netlist, bench->tb, flat_events);
  const sim::FrameList& golden = engine->golden().frames;
  for (std::size_t lane = 0; lane < sim::kNumLanes; ++lane) {
    EXPECT_EQ(sim::lane_frames(clean_first, golden, lane), reference.lane_frames[lane]);
    EXPECT_EQ(sim::lane_frames(clean_again, golden, lane), reference.lane_frames[lane]);
    EXPECT_EQ(sim::lane_frames(faulty, golden, lane), flat_faulty.lane_frames[lane]);
    EXPECT_EQ(sim::lane_frames(faulty_again, golden, lane),
              flat_faulty.lane_frames[lane]);
  }
  // A run after a sweep does the same work as one after a run.
  EXPECT_EQ(faulty_again.cycles_simulated, faulty.cycles_simulated);
  EXPECT_EQ(faulty_again.ops_evaluated, faulty.ops_evaluated);
  // Both sweeps, each after a fault run, equal a fresh runner's, bit for bit
  // and in work done.
  sim::WideReplayRunner<1> fresh(stimulus, ckpts);
  const auto fresh_sweep = sweep(fresh);
  ASSERT_NE(std::count(fresh_sweep.first.links.begin(), fresh_sweep.first.links.end(), 0u),
            static_cast<std::ptrdiff_t>(fresh_sweep.first.links.size()));
  for (const auto* swept : {&first_sweep, &second_sweep}) {
    EXPECT_EQ(swept->first.links, fresh_sweep.first.links);
    EXPECT_EQ(swept->first.masks, fresh_sweep.first.masks);
    EXPECT_EQ(swept->second.cycles_simulated, fresh_sweep.second.cycles_simulated);
    EXPECT_EQ(swept->second.op_block_evals, fresh_sweep.second.op_block_evals);
  }
  // One sweep per simulated cycle (a restored run has no reset sweep), a
  // pass never runs past the end of the testbench (it may stop once every
  // lane is back on golden), and a dirty-set sweep visits only the ops
  // whose inputs changed, never more than the oracle's full sweep.
  for (const sim::RunResult* run : {&clean_first, &faulty, &faulty_again, &clean_again}) {
    EXPECT_EQ(run->eval_count, run->cycles_simulated);
    EXPECT_LE(run->cycles_simulated,
              bench->tb.stimulus.num_cycles() - run->start_cycle);
  }
  EXPECT_LT(faulty.ops_evaluated, flat_faulty.ops_evaluated);
}

TEST_F(MacEngineFixture, EmptyWindowRejected) {
  sim::Testbench bad = bench->tb;
  bad.inject_end = bad.inject_begin;
  CampaignEngine bad_engine(mac->netlist, bad);
  EXPECT_THROW((void)bad_engine.run({}), std::invalid_argument);
}

TEST_F(MacEngineFixture, OutOfRangeSubsetRejected) {
  CampaignConfig config;
  config.ff_subset = {mac->netlist.num_flip_flops()};
  EXPECT_THROW((void)engine->run(config), std::out_of_range);
}

// ---- the observable cone ----------------------------------------------------------

TEST(ObservableCone, PinsTheUnobservablePartOfMacCore) {
  // The monitor watches the RX user interface. The statistics counters, the
  // configuration register, the BIST LFSR and signature, and the TX FIFO's
  // start-of-frame bit (bit 8 of each entry, which the transmitter never
  // reads) have no path to it; every loopback does.
  const circuits::MacCore mac = circuits::build_mac_core();
  const circuits::MacTestbench bench = circuits::build_mac_testbench(mac);
  const netlist::Netlist& nl = mac.netlist;
  const sim::ObservableCone cone = sim::observable_cone(nl, bench.tb);
  const auto ffs = nl.flip_flops();
  ASSERT_EQ(ffs.size(), 947u);
  ASSERT_EQ(cone.flip_flops.size(), ffs.size());
  EXPECT_EQ(cone.num_observable_ffs(), 803u);
  std::map<std::string, std::size_t> unobservable;
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (cone.flip_flops[i] != 0) continue;
    const std::string& name = nl.cell(ffs[i]).name;
    ++unobservable[name.substr(0, name.find('_'))];
  }
  const std::map<std::string, std::size_t> expected = {
      {"bist", 24}, {"cfg", 8}, {"stat", 80}, {"tx", 32}};
  EXPECT_EQ(unobservable, expected);
  ASSERT_EQ(cone.loopbacks.size(), 9u);
  EXPECT_EQ(std::count(cone.loopbacks.begin(), cone.loopbacks.end(), 1), 9);
  std::size_t dead_cells = 0;
  for (const netlist::CellId id : nl.topo_order()) {
    dead_cells += cone.nets[nl.cell(id).output] == 0 ? 1 : 0;
  }
  EXPECT_EQ(nl.topo_order().size(), 4598u);
  EXPECT_EQ(dead_cells, 800u);
  // The cone is closed under fan-in, which is what makes pruning sound.
  for (const netlist::Cell& cell : nl.cells()) {
    if (cone.nets[cell.output] == 0) continue;
    for (const netlist::NetId in : cell.inputs) {
      ASSERT_EQ(cone.nets[in], 1) << cell.name << " reads " << nl.net(in).name;
    }
  }
}

TEST_F(MacEngineFixture, PassOfUnobservableUpsetsStopsAtTheNextCheckpoint) {
  // Every injection targets a flip-flop outside the cone, so no lane can
  // leave golden: the pass resumes from the checkpoint at or before its
  // first injection and stops at the first checkpoint after its last one.
  const sim::CompiledStimulus stimulus(mac->netlist, bench->tb);
  const sim::GoldenCheckpoints& ckpts = engine->checkpoints();
  const auto ffs = mac->netlist.flip_flops();
  std::vector<netlist::CellId> unobservable;
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (stimulus.cone().flip_flops[i] == 0) unobservable.push_back(ffs[i]);
  }
  ASSERT_GE(unobservable.size(), 3u);
  const std::size_t first = bench->tb.inject_begin + 3;
  const std::size_t last = first + 2 * ckpts.interval + 5;
  ASSERT_LT(last, bench->tb.inject_end);
  std::vector<sim::LaneInjection> events;
  for (std::size_t k = 0; k < 3; ++k) {
    sim::LaneInjection ev;
    ev.ff_cell = unobservable[k * (unobservable.size() - 1) / 2];
    ev.cycle = static_cast<std::uint32_t>(k == 0 ? first : k == 1 ? first + 7 : last);
    ev.lane = static_cast<std::uint32_t>(17 * k + 3);
    events.push_back(ev);
  }
  sim::WideReplayRunner<4> runner(stimulus, ckpts, 2);
  const sim::RunResult run = runner.run(events);
  const std::size_t start = first / ckpts.interval * ckpts.interval;
  const std::size_t stop = (last / ckpts.interval + 1) * ckpts.interval;
  EXPECT_EQ(run.start_cycle, start);
  EXPECT_EQ(run.cycles_simulated, stop - start);
  EXPECT_EQ(run.eval_count, stop - start);
  ASSERT_EQ(run.lane_is_golden.size(), runner.lanes());
  for (std::size_t lane = 0; lane < runner.lanes(); ++lane) {
    EXPECT_EQ(run.lane_is_golden[lane], 1) << "lane " << lane;
  }
  // The pass simulated none of them: their state is not even held.
  EXPECT_LT(runner.simulator().num_ffs(), ffs.size());
  EXPECT_THROW((void)runner.simulator().ff_state(unobservable[0]),
               std::invalid_argument);
}

TEST_F(MacEngineFixture, UnobservableUpsetsAreAnsweredWithoutLanes) {
  // A subset mixing unobservable flip-flops into observable ones: the
  // unobservable ones' injections are all kOk, counted as proven, and get
  // no lane; so do the injections whose chain of hold links ends masked,
  // and the others share one lane per representative. The flat oracle,
  // which simulates every injection, agrees.
  const sim::CompiledStimulus stimulus(mac->netlist, bench->tb);
  const std::vector<std::uint8_t>& observable = stimulus.cone().flip_flops;
  CampaignConfig config;
  config.injections_per_ff = 40;
  config.lane_width = sim::LaneWidth::k64;
  std::size_t proven_ffs = 0;
  for (std::size_t i = 0; i < observable.size(); i += 5) {
    config.ff_subset.push_back(i);
    proven_ffs += observable[i] == 0 ? 1 : 0;
  }
  ASSERT_GT(proven_ffs, 0u);
  const CampaignResult batched = engine->run(config);
  EXPECT_GE(batched.proven_injections, proven_ffs * config.injections_per_ff);
  EXPECT_EQ(batched.total_injections,
            config.ff_subset.size() * config.injections_per_ff);

  // The same hold links, swept here on their own, give the exact answer.
  sim::HoldLinks links(mac->netlist.num_flip_flops(), bench->tb.inject_begin,
                       bench->tb.stimulus.num_cycles());
  sim::WideReplayRunner<1> runner(stimulus, engine->checkpoints(),
                                  sim::WideReplayRunner<1>::link_sweep_blocks(stimulus));
  (void)runner.sweep_links(links.window_begin, links.window_end, links);
  const std::size_t interval = engine->checkpoints().interval;
  const std::vector<CampaignJob> jobs =
      order_campaign_jobs(config, bench->tb, config.ff_subset, interval, links);
  const auto key = [interval](const CampaignJob& job) {
    return std::tuple(job.cycle / interval, job.task, job.cycle);
  };
  std::uint64_t carried = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_NE(observable[config.ff_subset[jobs[j].task]], 0) << "job " << j;
    if (j > 0) {
      EXPECT_LT(key(jobs[j - 1]), key(jobs[j])) << "one job per representative";
    }
    carried += jobs[j].weight;
  }
  EXPECT_EQ(batched.proven_injections, batched.total_injections - carried);
  EXPECT_EQ(batched.collapsed_injections, carried - jobs.size());
  EXPECT_GT(batched.collapsed_injections, 0u);
  EXPECT_EQ(batched.total_sim_passes, build_pass_schedule(jobs.size(), 64, 1).size());
  for (const FfResult& ff : batched.per_ff) {
    if (observable[ff.ff_index] != 0) continue;
    EXPECT_EQ(ff.classes.counts[0], config.injections_per_ff) << ff.name;
  }
  const CampaignResult flat =
      run_campaign(mac->netlist, bench->tb, engine->golden(), config);
  EXPECT_EQ(flat.proven_injections, 0u);
  expect_bit_identical(flat, batched);
}

// ---- hold links -------------------------------------------------------------------

/// One flip-flop per kind of hold link, each seen only through a monitored
/// data bit (observed while `valid` is high) or a loopback: a hold-enabled
/// register that loads `d_in` while `en` is high, a D = Q register, a toggle
/// (D = not Q), a constant-D register and a D = Q register that drives a
/// loopback source. No flip-flop reads another, so an upset stays in the
/// flip-flop it hit.
struct HoldLinkCircuit {
  netlist::Netlist nl;
  sim::Testbench tb;
};

constexpr std::size_t kHoldCycles = 24;
bool hold_valid_at(std::size_t cycle) { return cycle % 5 == 3; }
bool hold_en_at(std::size_t cycle) { return cycle % 4 == 1; }

HoldLinkCircuit build_hold_link_circuit() {
  netlist::NetlistBuilder b("hold_links");
  const netlist::NetId valid = b.input("valid");
  const netlist::NetId en = b.input("en");
  const netlist::NetId d_in = b.input("d_in");
  const netlist::NetId loop_in = b.input("loop_in");
  const netlist::FlipFlop hold = b.dff_loop(
      [&](netlist::NetId q) { return b.mux2(q, d_in, en); }, false, "hold");
  const netlist::FlipFlop same =
      b.dff_loop([](netlist::NetId q) { return q; }, true, "same");
  const netlist::FlipFlop toggle =
      b.dff_loop([&](netlist::NetId q) { return b.inv(q); }, false, "toggle");
  const netlist::FlipFlop konst = b.dff(b.constant(false), false, "konst");
  const netlist::FlipFlop looped =
      b.dff_loop([](netlist::NetId q) { return q; }, true, "looped");
  const netlist::NetId zero = b.constant(false);
  const std::vector<netlist::NetId> data = {hold.q, same.q, toggle.q, konst.q,
                                            loop_in};
  for (std::size_t i = 0; i < data.size(); ++i) {
    b.output(data[i], "data" + std::to_string(i));
  }
  HoldLinkCircuit c;
  c.nl = b.build();
  c.tb.stimulus = sim::Stimulus(c.nl.primary_inputs().size(), kHoldCycles);
  for (std::size_t cycle = 0; cycle < kHoldCycles; ++cycle) {
    c.tb.stimulus.set(0, cycle, hold_valid_at(cycle));
    c.tb.stimulus.set(1, cycle, hold_en_at(cycle));
    c.tb.stimulus.set(2, cycle, cycle % 3 == 0);
  }
  c.tb.loopbacks.push_back(sim::Loopback{looped.q, loop_in, false});
  c.tb.monitor.valid = valid;
  c.tb.monitor.sop = zero;
  c.tb.monitor.eop = zero;
  c.tb.monitor.err = zero;
  c.tb.monitor.data = data;
  c.tb.inject_begin = 2;
  c.tb.inject_end = 20;
  return c;
}

/// The exact link and mask bits of every flip-flop of the hold-link circuit
/// over [inject_begin, kHoldCycles), swept at width W in the given pieces.
template <std::size_t W>
void check_hold_link_bits(const std::vector<std::size_t>& cuts) {
  const HoldLinkCircuit c = build_hold_link_circuit();
  const CampaignEngine engine(c.nl, c.tb);
  const sim::CompiledStimulus stimulus(c.nl, c.tb);
  sim::HoldLinks links(c.nl.num_flip_flops(), c.tb.inject_begin, kHoldCycles);
  sim::WideReplayRunner<W> runner(stimulus, engine.checkpoints(),
                                  sim::WideReplayRunner<W>::link_sweep_blocks(stimulus));
  std::size_t begin = c.tb.inject_begin;
  for (const std::size_t end : cuts) {
    const sim::LinkSweepCost cost = runner.sweep_links(begin, end, links);
    // Each piece resumes from the checkpoint at or before its first cycle.
    EXPECT_EQ(cost.cycles_simulated,
              end - engine.checkpoints().at_or_before(begin).cycle);
    begin = end;
  }
  ASSERT_EQ(begin, kHoldCycles);

  std::map<std::string, std::size_t> position;
  const auto ffs = c.nl.flip_flops();
  for (std::size_t i = 0; i < ffs.size(); ++i) position[c.nl.cell(ffs[i]).name] = i;
  for (std::size_t cycle = c.tb.inject_begin; cycle < kHoldCycles; ++cycle) {
    const std::string at = "W=" + std::to_string(W) + " cycle " + std::to_string(cycle);
    // A data bit is observed while valid is high; an upset that changes
    // nothing outside in the testbench's last cycle is never observed.
    const bool seen = hold_valid_at(cycle);
    const bool last = cycle + 1 == kHoldCycles;
    const auto link = [&](const char* name) { return links.link(position.at(name), cycle); };
    const auto masked = [&](const char* name) {
      return links.masked(position.at(name), cycle);
    };
    // Read while valid, overwritten (masked) while en, held otherwise.
    EXPECT_EQ(link("hold"), !seen && !last && !hold_en_at(cycle)) << at;
    EXPECT_EQ(masked("hold"), !seen && (last || hold_en_at(cycle))) << at;
    // D = Q holds the flip, and so does D = not Q: the flipped state
    // toggles into the flipped successor.
    for (const char* held : {"same", "toggle"}) {
      EXPECT_EQ(link(held), !seen && !last) << at << " " << held;
      EXPECT_EQ(masked(held), !seen && last) << at << " " << held;
    }
    // A constant D writes golden back at the edge.
    EXPECT_FALSE(link("konst")) << at;
    EXPECT_EQ(masked("konst"), !seen) << at;
    // A flip that reaches a loopback source is never a link, nor masked.
    EXPECT_FALSE(link("looped")) << at;
    EXPECT_FALSE(masked("looped")) << at;
  }
  // Links sized for another circuit, or cycles outside the window or the
  // testbench, are refused.
  sim::HoldLinks wrong_size(65, c.tb.inject_begin, kHoldCycles);
  EXPECT_THROW((void)runner.sweep_links(c.tb.inject_begin, kHoldCycles, wrong_size),
               std::invalid_argument);
  EXPECT_THROW((void)runner.sweep_links(c.tb.inject_begin - 1, kHoldCycles, links),
               std::invalid_argument);
  sim::HoldLinks too_long(c.nl.num_flip_flops(), c.tb.inject_begin, kHoldCycles + 1);
  EXPECT_THROW((void)runner.sweep_links(c.tb.inject_begin, kHoldCycles + 1, too_long),
               std::invalid_argument);
  // Outside the window nothing is linked or masked.
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    EXPECT_FALSE(links.link(i, c.tb.inject_begin - 1));
    EXPECT_FALSE(links.masked(i, c.tb.inject_begin - 1));
    EXPECT_FALSE(links.link(i, kHoldCycles));
  }
}

TEST(HoldLinks, ExactBitsAt64) { check_hold_link_bits<1>({kHoldCycles}); }
TEST(HoldLinks, ExactBitsAt256InPieces) { check_hold_link_bits<4>({7, 16, kHoldCycles}); }
TEST(HoldLinks, ExactBitsAt512InPieces) { check_hold_link_bits<8>({3, 17, kHoldCycles}); }

TEST(HoldLinks, LoopbackToggledBeforeAnOffCheckpointSweep) {
  // A hold-enabled register whose enable arrives through a loopback from a
  // toggle flip-flop, so the enable's golden value changes every cycle. A
  // sweep that resumes cycles before its first cycle must carry the golden
  // loopback values through them: its bits equal those of a sweep that
  // starts on a checkpoint, and the pinned ones.
  netlist::NetlistBuilder b("looped_enable");
  const netlist::NetId valid = b.input("valid");
  const netlist::NetId d_in = b.input("d_in");
  const netlist::NetId loop_in = b.input("loop_in");
  const netlist::FlipFlop toggle =
      b.dff_loop([&](netlist::NetId q) { return b.inv(q); }, false, "toggle");
  const netlist::FlipFlop gated = b.dff_loop(
      [&](netlist::NetId q) { return b.mux2(q, d_in, loop_in); }, false, "gated");
  const netlist::NetId zero = b.constant(false);
  b.output(gated.q, "data0");
  sim::Testbench tb;
  const netlist::Netlist nl = b.build();
  tb.stimulus = sim::Stimulus(nl.primary_inputs().size(), kHoldCycles);
  for (std::size_t cycle = 0; cycle < kHoldCycles; ++cycle) {
    tb.stimulus.set(0, cycle, hold_valid_at(cycle));
    tb.stimulus.set(1, cycle, cycle % 3 == 0);
  }
  tb.loopbacks.push_back(sim::Loopback{toggle.q, loop_in, false});
  tb.monitor.valid = valid;
  tb.monitor.sop = zero;
  tb.monitor.eop = zero;
  tb.monitor.err = zero;
  tb.monitor.data = {gated.q};
  tb.inject_begin = 2;
  tb.inject_end = 20;
  const sim::CompiledStimulus stimulus(nl, tb);
  const auto record = [&](std::size_t interval) {
    sim::GoldenCheckpoints ckpts;
    ckpts.interval = interval;
    (void)sim::run_golden(stimulus, &ckpts);
    return ckpts;
  };
  const sim::GoldenCheckpoints every_cycle = record(1);
  const sim::GoldenCheckpoints sparse = record(kHoldCycles);
  sim::WideReplayRunner<1> on(stimulus, every_cycle,
                              sim::WideReplayRunner<1>::link_sweep_blocks(stimulus));
  sim::WideReplayRunner<1> off(stimulus, sparse,
                               sim::WideReplayRunner<1>::link_sweep_blocks(stimulus));
  const std::size_t g = nl.cell(nl.flip_flops()[0]).name == "gated" ? 0 : 1;
  // The loopback latches the toggle's Q (0, 1, 0, ...) for the next cycle
  // and starts at 0, so the register loads on every even cycle but 0.
  const auto enabled = [](std::size_t cycle) { return cycle > 0 && cycle % 2 == 0; };
  for (std::size_t begin = tb.inject_begin; begin < kHoldCycles; ++begin) {
    sim::HoldLinks want(nl.num_flip_flops(), begin, kHoldCycles);
    sim::HoldLinks got(nl.num_flip_flops(), begin, kHoldCycles);
    const sim::LinkSweepCost on_cost = on.sweep_links(begin, kHoldCycles, want);
    const sim::LinkSweepCost off_cost = off.sweep_links(begin, kHoldCycles, got);
    EXPECT_EQ(on_cost.cycles_simulated, kHoldCycles - begin);
    EXPECT_EQ(off_cost.cycles_simulated, kHoldCycles) << "resumes from cycle 0";
    EXPECT_EQ(got.links, want.links) << "begin " << begin;
    EXPECT_EQ(got.masks, want.masks) << "begin " << begin;
    for (std::size_t cycle = begin; cycle < kHoldCycles; ++cycle) {
      const std::string at =
          "begin " + std::to_string(begin) + " cycle " + std::to_string(cycle);
      const bool seen = hold_valid_at(cycle);
      const bool last = cycle + 1 == kHoldCycles;
      EXPECT_EQ(got.link(g, cycle), !seen && !last && !enabled(cycle)) << at;
      EXPECT_EQ(got.masked(g, cycle), !seen && (last || enabled(cycle))) << at;
      // A flip that reaches the loopback source is never a link, nor masked.
      EXPECT_FALSE(got.link(1 - g, cycle)) << at;
      EXPECT_FALSE(got.masked(1 - g, cycle)) << at;
    }
  }
}

TEST(HoldLinks, SameBitsAtEveryWidthAndGrouping) {
  // At 64 lanes a sweep holds at most 511 flip-flops besides the golden
  // lane, so full-size mac_core's 803 observable flip-flops are swept in two
  // groups; at 512 lanes, in one.
  const circuits::MacCore mac = circuits::build_mac_core();
  const circuits::MacTestbench bench = circuits::build_mac_testbench(mac);
  const CampaignEngine engine(mac.netlist, bench.tb);
  const sim::CompiledStimulus stimulus(mac.netlist, bench.tb);
  ASSERT_GT(stimulus.cone().num_observable_ffs(), 511u);
  const auto sweep = [&](auto width_tag) {
    constexpr std::size_t W = decltype(width_tag)::value;
    sim::HoldLinks links(mac.netlist.num_flip_flops(), bench.tb.inject_begin,
                         bench.tb.stimulus.num_cycles());
    sim::WideReplayRunner<W> runner(stimulus, engine.checkpoints(),
                                    sim::WideReplayRunner<W>::link_sweep_blocks(stimulus));
    (void)runner.sweep_links(links.window_begin, links.window_end, links);
    return links;
  };
  const sim::HoldLinks narrow = sweep(std::integral_constant<std::size_t, 1>{});
  const sim::HoldLinks wide = sweep(std::integral_constant<std::size_t, 8>{});
  EXPECT_EQ(narrow.links, wide.links);
  EXPECT_EQ(narrow.masks, wide.masks);
  EXPECT_NE(std::count(wide.links.begin(), wide.links.end(), 0u),
            static_cast<std::ptrdiff_t>(wide.links.size()));
}

TEST(HoldLinks, EngineCollapsesChainsBitIdenticalToFlat) {
  const HoldLinkCircuit c = build_hold_link_circuit();
  const CampaignEngine engine(c.nl, c.tb);
  const std::size_t resident = engine.resident_bytes();
  EXPECT_FALSE(engine.link_sweep().swept) << "never swept by the constructor";
  CampaignConfig config;
  config.injections_per_ff = 30;  // above the 18-cycle window: repeats too
  config.lane_width = sim::LaneWidth::k64;
  const CampaignResult flat = run_campaign(c.nl, c.tb, engine.golden(), config);
  const CampaignResult batched = engine.run(config);
  expect_bit_identical(flat, batched);
  EXPECT_GT(batched.collapsed_injections, 0u);
  EXPECT_GT(batched.proven_injections, 0u);
  // The one lane the loopback flip-flop gets per distinct cycle, at most.
  EXPECT_LE(batched.total_injections - batched.proven_injections -
                batched.collapsed_injections,
            64u);
  const CampaignEngine::LinkSweepStats sweep = engine.link_sweep();
  EXPECT_TRUE(sweep.swept);
  EXPECT_EQ(sweep.cycles_simulated, kHoldCycles);  // two segments from 0 and 16
  EXPECT_GT(sweep.op_block_evals, 0u);
  // The sweep is memoized: a second run does not sweep again, and the
  // campaign counters never include it.
  const CampaignResult again = engine.run(config);
  EXPECT_EQ(engine.link_sweep().cycles_simulated, sweep.cycles_simulated);
  EXPECT_EQ(again.total_sim_passes, batched.total_sim_passes);
  EXPECT_EQ(again.cycles_simulated, batched.cycles_simulated);
  EXPECT_EQ(again.ops_evaluated, batched.ops_evaluated);
  EXPECT_EQ(engine.resident_bytes(), resident) << "charged from construction";
}

TEST(HoldLinks, ConcurrentFirstRunsShareOneSweep) {
  // Two threads start the first campaigns of one fresh engine together: one
  // of them sweeps, the other waits for it, and both campaigns match a
  // single-threaded run on another engine.
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core);
  CampaignConfig config;
  config.injections_per_ff = 24;
  config.num_threads = 2;
  const CampaignResult reference = CampaignEngine(core.netlist, bench.tb).run(config);
  const CampaignEngine engine(core.netlist, bench.tb);
  CampaignResult results[2];
  std::thread other([&] { results[1] = engine.run(config); });
  results[0] = engine.run(config);
  other.join();
  for (const CampaignResult& result : results) {
    expect_bit_identical(reference, result);
    EXPECT_EQ(result.total_sim_passes, reference.total_sim_passes);
    EXPECT_EQ(result.ops_evaluated, reference.ops_evaluated);
  }
  EXPECT_TRUE(engine.link_sweep().swept);
}

// ---- second circuit: the pipeline datapath --------------------------------------

TEST(PipelineEngine, BitExactWithFlatCampaign) {
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core);
  CampaignEngine engine(core.netlist, bench.tb);
  CampaignConfig config;
  config.injections_per_ff = 32;
  const CampaignResult flat =
      run_campaign(core.netlist, bench.tb, engine.golden(), config);
  const CampaignResult batched = engine.run(config);
  expect_bit_identical(flat, batched);
  EXPECT_GT(batched.collapsed_injections, 0u);
  EXPECT_LE(batched.total_sim_passes, flat.total_sim_passes);
}

TEST(PipelineEngine, DeterministicAcrossThreads) {
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core);
  CampaignEngine engine(core.netlist, bench.tb);
  CampaignConfig config;
  config.injections_per_ff = 16;
  config.num_threads = 1;
  const CampaignResult single = engine.run(config);
  config.num_threads = 0;  // hardware concurrency
  const CampaignResult parallel = engine.run(config);
  expect_bit_identical(single, parallel);
}

}  // namespace
}  // namespace ffr::fault
