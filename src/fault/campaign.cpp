#include "fault/campaign.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ffr::fault {

std::vector<double> CampaignResult::fdr_vector() const {
  std::vector<double> fdr;
  fdr.reserve(per_ff.size());
  for (const FfResult& ff : per_ff) fdr.push_back(ff.fdr());
  return fdr;
}

double CampaignResult::mean_fdr() const {
  if (per_ff.empty()) return 0.0;
  double sum = 0.0;
  for (const FfResult& ff : per_ff) sum += ff.fdr();
  return sum / static_cast<double>(per_ff.size());
}

std::vector<std::size_t> injection_cycles(const CampaignConfig& config,
                                          const sim::Testbench& tb,
                                          std::size_t ff_index) {
  if (tb.inject_end <= tb.inject_begin) {
    throw std::invalid_argument("injection_cycles: empty injection window");
  }
  const std::size_t window = tb.inject_end - tb.inject_begin;

  // Per-FF deterministic stream: independent of the subset ordering and of
  // how tasks are scheduled across threads.
  util::Rng rng(config.seed ^ (0x9e3779b97f4a7c15ULL * (ff_index + 1)));

  // Injection cycles: distinct when the window allows, as in a statistical
  // campaign sampling "different times during the active phase".
  std::vector<std::size_t> cycles;
  if (config.injections_per_ff <= window) {
    cycles = rng.sample_without_replacement(window, config.injections_per_ff);
  } else {
    cycles.resize(config.injections_per_ff);
    for (auto& c : cycles) c = static_cast<std::size_t>(rng.below(window));
  }
  for (auto& c : cycles) c += tb.inject_begin;
  return cycles;
}

std::vector<std::size_t> resolve_ff_subset(const CampaignConfig& config,
                                           std::size_t num_ffs) {
  std::vector<std::size_t> subset = config.ff_subset;
  if (subset.empty()) {
    subset.resize(num_ffs);
    for (std::size_t i = 0; i < num_ffs; ++i) subset[i] = i;
  }
  for (const std::size_t i : subset) {
    if (i >= num_ffs) throw std::out_of_range("resolve_ff_subset: ff index");
  }
  return subset;
}

CampaignResult run_campaign(const netlist::Netlist& nl, const sim::Testbench& tb,
                            const sim::GoldenResult& golden,
                            const CampaignConfig& config) {
  if (tb.inject_end <= tb.inject_begin) {
    throw std::invalid_argument("run_campaign: empty injection window");
  }
  const auto ffs = nl.flip_flops();
  const std::vector<std::size_t> subset = resolve_ff_subset(config, ffs.size());

  util::Stopwatch stopwatch;
  CampaignResult result;
  result.per_ff.resize(subset.size());
  std::vector<std::uint64_t> passes(subset.size(), 0);
  std::vector<std::uint64_t> sim_cycles(subset.size(), 0);
  std::vector<std::uint64_t> sim_ops(subset.size(), 0);

  util::ThreadPool pool(config.num_threads);
  // Chunks of one flip-flop: each call's `begin` is its task.
  pool.parallel_for_chunked(subset.size(), 1, [&](std::size_t task, std::size_t,
                                                  std::size_t) {
    const std::size_t ff_index = subset[task];
    const netlist::CellId cell = ffs[ff_index];

    const std::vector<std::size_t> cycles = injection_cycles(config, tb, ff_index);

    FfResult ff_result;
    ff_result.ff_index = ff_index;
    ff_result.name = nl.cell(cell).name;
    ff_result.injections = config.injections_per_ff;

    for (std::size_t batch_start = 0; batch_start < cycles.size();
         batch_start += sim::kNumLanes) {
      const std::size_t lanes =
          std::min(sim::kNumLanes, cycles.size() - batch_start);
      std::vector<sim::InjectionEvent> events;
      events.reserve(lanes);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        sim::InjectionEvent ev;
        ev.ff_cell = cell;
        ev.cycle = static_cast<std::uint32_t>(cycles[batch_start + lane]);
        ev.lane_mask = sim::Lanes{1} << lane;
        events.push_back(ev);
      }
      const sim::RunResult run = sim::run_testbench(nl, tb, events);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        ff_result.classes.add(classify(golden.frames, run.lane_frames[lane]));
      }
      ++passes[task];
      sim_cycles[task] += run.cycles_simulated;
      sim_ops[task] += run.ops_evaluated;
    }
    result.per_ff[task] = std::move(ff_result);
  });

  for (const auto p : passes) result.total_sim_passes += p;
  for (const auto c : sim_cycles) result.cycles_simulated += c;
  for (const auto o : sim_ops) result.ops_evaluated += o;
  for (const FfResult& ff : result.per_ff) result.total_injections += ff.injections;
  result.pass_histogram = {
      PassShapeCount{sim::kNumLanes, 1, result.total_sim_passes}};
  result.wall_seconds = stopwatch.elapsed_seconds();
  return result;
}

}  // namespace ffr::fault
