#include "fault/engine.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>

#include "sim/wide_runner.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ffr::fault {

namespace {

/// Per-pass net-state footprint budget for auto blocks_per_pass: one block
/// of a W-lane pass costs num_nets * W / 8 bytes of hot value storage, and
/// sweeping more blocks only helps while the working set stays cache-class.
/// 1 MB lands relay_core (5739 nets, 359 KB per 512-lane block) on 2 blocks
/// per pass. A fixed constant (not a host probe) keeps schedules and
/// deterministic counters machine-independent.
constexpr std::size_t kAutoBlockFootprintBytes = std::size_t{1} << 20;

struct WorkerCost {
  std::uint64_t cycles = 0;
  std::uint64_t ops = 0;
  std::uint64_t op_block_evals = 0;
  std::uint64_t ff_block_ticks = 0;
  std::uint64_t restores = 0;

  void add(const sim::RunResult& run) {
    cycles += run.cycles_simulated;
    ops += run.ops_evaluated;
    op_block_evals += run.op_block_evals;
    ff_block_ticks += run.ff_block_ticks;
    if (run.start_cycle > 0) ++restores;
  }
};

/// SIMD lane-block pass executor at the campaign's block width W: replays
/// each owned pass on a per-worker WideReplayRunner<W> sized to that pass's
/// block count. The per-job outcomes are written disjointly — science
/// output can never depend on scheduling, block width or block count.
/// `ckpts` supplies the resume points and the interface tape of the
/// golden-relative monitor; the lanes that left golden are classified
/// against `golden_frames`.
template <std::size_t W>
void run_wide_group(const sim::CompiledStimulus& stimulus,
                    std::span<const netlist::CellId> ffs,
                    const std::vector<std::size_t>& subset,
                    const std::vector<CampaignJob>& jobs,
                    const std::vector<PlannedPass>& schedule,
                    const std::vector<std::size_t>& pass_indices,
                    const sim::GoldenCheckpoints& ckpts,
                    const sim::FrameList& golden_frames,
                    util::ThreadPool& pool,
                    std::vector<FailureClass>& outcome,
                    std::vector<WorkerCost>& costs) {
  // One runner per (worker, block count): a campaign has at most two block
  // counts (full passes and the tail), so a worker builds at most two.
  std::vector<std::array<std::unique_ptr<sim::WideReplayRunner<W>>,
                         sim::kMaxLaneBlocksPerPass + 1>>
      runners(pool.size());
  pool.parallel_for_chunked(
      pass_indices.size(), 0,
      [&](std::size_t begin, std::size_t end, std::size_t worker) {
        std::vector<sim::LaneInjection> events;
        for (std::size_t i = begin; i < end; ++i) {
          const PlannedPass& pass = schedule[pass_indices[i]];
          auto& slot = runners[worker][pass.blocks];
          if (!slot) {
            slot = std::make_unique<sim::WideReplayRunner<W>>(stimulus, ckpts,
                                                              pass.blocks);
          }
          sim::WideReplayRunner<W>& runner = *slot;
          events.clear();
          events.reserve(pass.job_end - pass.job_begin);
          for (std::size_t j = pass.job_begin; j < pass.job_end; ++j) {
            sim::LaneInjection ev;
            ev.ff_cell = ffs[subset[jobs[j].task]];
            ev.cycle = jobs[j].cycle;
            ev.lane = static_cast<std::uint32_t>(j - pass.job_begin);
            events.push_back(ev);
          }
          const sim::RunResult run = runner.run(events);
          // A lane whose interface never left golden's is kOk by
          // construction: its frames are the golden frames.
          for (std::size_t j = pass.job_begin; j < pass.job_end; ++j) {
            const std::size_t lane = j - pass.job_begin;
            outcome[j] = run.lane_is_golden[lane]
                             ? FailureClass::kOk
                             : classify(golden_frames,
                                        run.lane_golden_prefix[lane],
                                        run.lane_frames[lane]);
          }
          costs[worker].add(run);
        }
      });
}

}  // namespace

std::vector<PlannedPass> build_pass_schedule(std::size_t num_jobs,
                                             std::size_t width,
                                             std::size_t full_blocks) {
  if (width == 0 || full_blocks == 0) {
    throw std::invalid_argument(
        "build_pass_schedule: width and full_blocks must be >= 1");
  }
  std::vector<PlannedPass> schedule;
  const std::size_t capacity = width * full_blocks;
  for (std::size_t begin = 0; begin < num_jobs; begin += capacity) {
    PlannedPass pass;
    pass.job_begin = begin;
    pass.job_end = std::min(num_jobs, begin + capacity);
    pass.blocks = (pass.job_end - begin + width - 1) / width;
    schedule.push_back(pass);
  }
  return schedule;
}

std::vector<CampaignJob> order_campaign_jobs(
    const CampaignConfig& config, const sim::Testbench& tb,
    const std::vector<std::size_t>& subset, std::size_t interval,
    const sim::HoldLinks& links) {
  if (interval == 0) {
    throw std::invalid_argument("order_campaign_jobs: interval must be >= 1");
  }
  // Each flip-flop's jobs in cycle order, flip-flop after flip-flop, while
  // counting each segment's jobs; a placing pass then fills every segment in
  // (task, cycle) order without a comparison sort.
  std::vector<CampaignJob> by_task;
  const std::size_t horizon = std::max(tb.inject_end, links.window_end);
  std::vector<std::size_t> segment_begin(horizon / interval + 2, 0);
  for (std::size_t task = 0; task < subset.size(); ++task) {
    const std::size_t ff = subset[task];
    std::vector<std::size_t> cycles = injection_cycles(config, tb, ff);
    std::sort(cycles.begin(), cycles.end());
    std::size_t rep = 0;  // end of the chain the previous cycle walked to
    bool walked = false;
    for (const std::size_t cycle : cycles) {
      // The cycles up to `rep` chain to `rep`; a later cycle starts a fresh
      // walk from itself.
      if (!walked || cycle > rep) {
        for (rep = cycle; links.link(ff, rep);) ++rep;
        walked = true;
      }
      if (links.masked(ff, rep)) continue;
      if (!by_task.empty() && by_task.back().task == task &&
          by_task.back().cycle == rep) {
        ++by_task.back().weight;
        continue;
      }
      by_task.push_back(CampaignJob{static_cast<std::uint32_t>(task),
                                    static_cast<std::uint32_t>(rep), 1});
      ++segment_begin[rep / interval + 1];
    }
  }
  std::partial_sum(segment_begin.begin(), segment_begin.end(),
                   segment_begin.begin());
  std::vector<CampaignJob> jobs(by_task.size());
  for (const CampaignJob& job : by_task) {
    jobs[segment_begin[job.cycle / interval]++] = job;
  }
  return jobs;
}

std::size_t resolve_blocks_per_pass(std::size_t requested,
                                    std::size_t width_lanes,
                                    std::size_t num_nets,
                                    std::string* warning) {
  if (requested == 0) {
    // 64-lane campaigns are never widened implicitly: adaptive block
    // selection must not change their pinned pass counts.
    if (width_lanes <= sim::kNumLanes) return 1;
    const std::size_t bytes_per_block =
        std::max<std::size_t>(1, num_nets) * (width_lanes / 8);
    std::size_t blocks = sim::kMaxLaneBlocksPerPass;
    while (blocks > 1 && blocks * bytes_per_block > kAutoBlockFootprintBytes) {
      blocks /= 2;
    }
    return blocks;
  }
  if (requested > sim::kMaxLaneBlocksPerPass) {
    if (warning != nullptr) {
      *warning = "blocks_per_pass " + std::to_string(requested) +
                 " exceeds the supported maximum; clamped to " +
                 std::to_string(sim::kMaxLaneBlocksPerPass) + " blocks";
    }
    return sim::kMaxLaneBlocksPerPass;
  }
  return requested;
}

namespace {

/// Sweeps the hold links of `links`' window at block width W, one
/// checkpoint segment per pool item on a per-worker runner of
/// link_sweep_blocks() blocks. Each segment resumes from its own
/// checkpoint, so only a window start that is not on a checkpoint cycle
/// costs fast-forward cycles.
template <std::size_t W>
void sweep_hold_links(const sim::CompiledStimulus& stimulus,
                      const sim::GoldenCheckpoints& ckpts, util::ThreadPool& pool,
                      sim::HoldLinks& links, std::vector<sim::LinkSweepCost>& costs) {
  const std::size_t interval = ckpts.interval;
  const std::size_t first = links.window_begin / interval;
  const std::size_t segments =
      links.window_end > links.window_begin
          ? (links.window_end - 1) / interval + 1 - first
          : 0;
  std::vector<std::unique_ptr<sim::WideReplayRunner<W>>> runners(pool.size());
  pool.parallel_for_chunked(
      segments, 0, [&](std::size_t begin, std::size_t end, std::size_t worker) {
        auto& runner = runners[worker];
        if (!runner) {
          runner = std::make_unique<sim::WideReplayRunner<W>>(
              stimulus, ckpts, sim::WideReplayRunner<W>::link_sweep_blocks(stimulus));
        }
        for (std::size_t s = begin; s < end; ++s) {
          const std::size_t segment = first + s;
          costs[worker] += runner->sweep_links(
              std::max(links.window_begin, segment * interval),
              std::min(links.window_end, (segment + 1) * interval), links);
        }
      });
}

}  // namespace

CampaignEngine::CampaignEngine(const netlist::Netlist& nl, const sim::Testbench& tb)
    : nl_(&nl), tb_(&tb), stimulus_(nl, tb) {
  // Record checkpoints during the one golden run the engine pays anyway. A
  // zero-cycle testbench has nothing to record; run() rejects it.
  const std::size_t num_cycles = stimulus_.num_cycles();
  checkpoints_.interval = std::min(kCheckpointInterval, num_cycles);
  golden_ = sim::run_golden(stimulus_, num_cycles > 0 ? &checkpoints_ : nullptr);
}

std::size_t CampaignEngine::resident_bytes() const {
  std::size_t bytes = sizeof(*this) + stimulus_.memory_bytes();
  for (const sim::Frame& frame : golden_.frames) {
    bytes += sizeof(sim::Frame) + frame.bytes.size();
  }
  bytes += golden_.activity.cycles_at_1.size() * sizeof(std::uint64_t);
  bytes += golden_.activity.state_changes.size() * sizeof(std::uint64_t);
  bytes += sim::HoldLinks::bytes_for(nl_->num_flip_flops(), tb_->inject_begin,
                                     stimulus_.num_cycles());
  return bytes + checkpoints_.memory_bytes();
}

const sim::HoldLinks& CampaignEngine::hold_links(util::ThreadPool& pool) const {
  LinkMemo& memo = *links_;
  // The exception is memoized too: an exception escaping std::call_once
  // leaves the flag unusable on some standard libraries.
  std::call_once(memo.once, [&] {
    try {
      util::Stopwatch stopwatch;
      memo.links = sim::HoldLinks(nl_->num_flip_flops(), tb_->inject_begin,
                                  stimulus_.num_cycles());
      std::vector<sim::LinkSweepCost> costs(pool.size());
      sim::at_block_width(sim::resolve_lane_width(sim::LaneWidth::kAuto).width,
                          [&](auto width) {
                            sweep_hold_links<decltype(width)::value>(
                                stimulus_, checkpoints_, pool, memo.links, costs);
                          });
      sim::LinkSweepCost total;
      for (const sim::LinkSweepCost& cost : costs) total += cost;
      memo.stats.swept = true;
      memo.stats.cycles_simulated = total.cycles_simulated;
      memo.stats.op_block_evals = total.op_block_evals;
      memo.stats.wall_seconds = stopwatch.elapsed_seconds();
      memo.swept.store(true);
    } catch (...) {
      memo.error = std::current_exception();
    }
  });
  if (memo.error != nullptr) std::rethrow_exception(memo.error);
  return memo.links;
}

CampaignEngine::LinkSweepStats CampaignEngine::link_sweep() const {
  return links_->swept.load() ? links_->stats : LinkSweepStats{};
}

CampaignResult CampaignEngine::run(const CampaignConfig& config) const {
  if (stimulus_.num_cycles() == 0) {
    throw std::invalid_argument(
        "CampaignEngine::run: the testbench has zero cycles, so there is no "
        "golden recording to replay against");
  }
  if (tb_->inject_end <= tb_->inject_begin) {
    throw std::invalid_argument("CampaignEngine::run: empty injection window");
  }
  if (config.shard.count == 0) {
    throw std::invalid_argument("CampaignEngine::run: shard count must be >= 1");
  }
  if (config.shard.index >= config.shard.count) {
    throw std::invalid_argument(
        "CampaignEngine::run: shard index " +
        std::to_string(config.shard.index) + " out of range for " +
        std::to_string(config.shard.count) + " shards");
  }
  const auto ffs = nl_->flip_flops();
  const std::vector<std::size_t> subset = resolve_ff_subset(config, ffs.size());

  // Resolve the SIMD block width and block count up front: kAuto width picks
  // the host's native width (explicit requests wider than the host fall back
  // with a warning); blocks_per_pass = 0 auto-sizes against the fixed cache
  // budget at the resolved width.
  const sim::ResolvedLaneWidth resolved = sim::resolve_lane_width(config.lane_width);
  const std::size_t block_lanes = sim::lanes_of(resolved.width);
  std::string blocks_warning;
  const std::size_t blocks = resolve_blocks_per_pass(
      config.blocks_per_pass, block_lanes, nl_->num_nets(), &blocks_warning);

  util::Stopwatch stopwatch;
  CampaignResult result;
  result.per_ff.resize(subset.size());
  result.lanes_per_pass = block_lanes * blocks;
  result.blocks_per_pass = blocks;
  if (!resolved.warning.empty()) result.warnings.push_back(resolved.warning);
  if (!blocks_warning.empty()) result.warnings.push_back(blocks_warning);

  for (std::size_t task = 0; task < subset.size(); ++task) {
    FfResult& ff_result = result.per_ff[task];
    ff_result.ff_index = subset[task];
    ff_result.name = nl_->cell(ffs[subset[task]]).name;
  }

  // Flat job list: job j is one representative upset, one lane. Slicing it
  // into lane-block passes packs lanes across flip-flop boundaries, which is
  // where the pass saving over the flat campaign comes from. The hold links
  // collapse every chain of upsets that sit unread in a flip-flop onto the
  // cycle where they are read. An upset of a flip-flop outside the
  // observable cone, or one whose chain ends masked, can never reach the
  // interface, so it is answered kOk here and gets no lane; shard 0 owns
  // these answers.
  util::ThreadPool pool(config.num_threads);
  const std::vector<CampaignJob> jobs = order_campaign_jobs(
      config, *tb_, subset, checkpoints_.interval, hold_links(pool));
  if (config.shard.index == 0) {
    std::vector<std::uint64_t> carried(subset.size(), 0);
    for (const CampaignJob& job : jobs) carried[job.task] += job.weight;
    for (std::size_t task = 0; task < subset.size(); ++task) {
      const std::uint64_t proven = config.injections_per_ff - carried[task];
      result.per_ff[task].classes.add(FailureClass::kOk, proven);
      result.per_ff[task].injections += proven;
      result.proven_injections += proven;
    }
  }
  result.total_injections = result.proven_injections;
  result.checkpoint_bytes = checkpoints_.memory_bytes();

  // Pass schedule: full (width x blocks) passes plus one tail pass with just
  // enough blocks, all at the resolved width. Deterministic given (jobs,
  // width, blocks), so pass counts are exact regression-guard counters. The
  // schedule is always planned over the FULL job list, and so is its
  // ownership (see ShardSpec): each pass, in schedule order, goes to the
  // shard with the least estimated work so far, a pass's estimate being the
  // most it can simulate, its blocks times the cycles from its restore
  // checkpoint to the end of the testbench. Each pass's outcomes and cost
  // counters depend only on its own job range, never on which other passes
  // run in the same process, which is what makes merged shard partials
  // bit-identical to an unsharded run.
  const std::vector<PlannedPass> schedule =
      build_pass_schedule(jobs.size(), block_lanes, blocks);
  std::vector<std::size_t> owned;
  std::vector<std::uint64_t> load(config.shard.count, 0);
  for (std::size_t p = 0; p < schedule.size(); ++p) {
    const auto least = std::min_element(load.begin(), load.end());
    const std::size_t restore = jobs[schedule[p].job_begin].cycle /
                                checkpoints_.interval * checkpoints_.interval;
    *least += schedule[p].blocks * (stimulus_.num_cycles() - restore);
    if (static_cast<std::size_t>(least - load.begin()) == config.shard.index) {
      owned.push_back(p);
    }
  }
  for (const std::size_t p : owned) {
    const std::size_t pass_blocks = schedule[p].blocks;
    auto it = std::find_if(
        result.pass_histogram.begin(), result.pass_histogram.end(),
        [&](const PassShapeCount& shape) { return shape.blocks == pass_blocks; });
    if (it == result.pass_histogram.end()) {
      result.pass_histogram.push_back(
          PassShapeCount{block_lanes, pass_blocks, 1});
    } else {
      ++it->passes;
    }
  }

  // Per-job outcome, written disjointly by the workers and reduced serially
  // afterwards — science output can never depend on scheduling. Jobs outside
  // this shard's passes stay untouched and are never accumulated.
  std::vector<FailureClass> outcome(jobs.size(), FailureClass::kOk);

  std::vector<WorkerCost> costs(pool.size());
  sim::at_block_width(resolved.width, [&](auto width) {
    run_wide_group<decltype(width)::value>(stimulus_, ffs, subset, jobs, schedule,
                                           owned, checkpoints_, golden_.frames, pool,
                                           outcome, costs);
  });

  for (const std::size_t p : owned) {
    const PlannedPass& pass = schedule[p];
    for (std::size_t j = pass.job_begin; j < pass.job_end; ++j) {
      FfResult& ff = result.per_ff[jobs[j].task];
      ff.classes.add(outcome[j], jobs[j].weight);
      ff.injections += jobs[j].weight;
      result.total_injections += jobs[j].weight;
      result.collapsed_injections += jobs[j].weight - 1;
    }
  }
  result.total_sim_passes = owned.size();
  for (const WorkerCost& cost : costs) {
    result.cycles_simulated += cost.cycles;
    result.ops_evaluated += cost.ops;
    result.op_block_evals += cost.op_block_evals;
    result.ff_block_ticks += cost.ff_block_ticks;
    result.checkpoint_restores += cost.restores;
  }
  result.wall_seconds = stopwatch.elapsed_seconds();
  return result;
}

netlist::ContentHash CampaignEngine::content_hash() const {
  return sim::content_hash(*nl_, *tb_);
}

}  // namespace ffr::fault
