// Reproduces §IV-A: the flat statistical fault injection campaign — per-
// flip-flop FDR from N random-time injections, with the failure-class
// breakdown, the FDR distribution histogram, per-block FDR summary, and
// simulation throughput (the cost the ML methodology amortizes) — then
// benchmarks the CampaignEngine (checkpointed, dirty-set "incremental"
// replay) against the flat campaign on the paper-scale relay circuit
// (≥947 FFs), reports the simulated-cycle and op-evaluation savings, sweeps
// the SIMD lane-block width (64 / 256 / 512 fault lanes per pass) and the
// worker-thread count, runs a k-of-N sharded campaign (fault/shard.hpp)
// whose merged partials must stay bit-identical to the unsharded engine
// run, and emits every measurement as machine-readable JSON
// (BENCH_sfi_campaign.json) so the perf trajectory is tracked across
// PRs, plus one row for the mac_core ground-truth campaign at the auto pass
// shape: the circuit whose unobservable flip-flops the engine answers
// without simulation. The engine headline and scheduling rows are pinned to
// the 64-lane scalar path so they stay comparable with earlier PRs; the
// width sweep reports the SIMD speedup on top of that 64-lane baseline.
//
// Environment knobs (besides bench_common's):
//   FFR_SWEEP_INJECTIONS  injections per FF for the scheduling sweep
//                         (default 34; the flat-vs-batched headline always
//                         runs at the paper's 170)

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "circuits/relay_core.hpp"
#include "fault/engine.hpp"
#include "fault/shard.hpp"
#include "util/stopwatch.hpp"
#include "util/table_printer.hpp"

namespace {

// One benchmark measurement, serialized to BENCH_sfi_campaign.json.
struct BenchRecord {
  std::string circuit;
  std::string mode;  // "flat", "incremental" (the engine) or a shard label
  std::size_t threads = 0;
  std::size_t checkpoint_interval = 0;
  std::size_t injections_per_ff = 0;
  ffr::fault::CampaignResult result;
  /// The engine's one hold-link sweep (zero for the flat oracle): reported
  /// beside the campaign counters, never folded into them.
  ffr::fault::CampaignEngine::LinkSweepStats link_sweep;
};

/// Compact pass-schedule histogram, most blocks first: "512x2:133;512x1:1"
/// means 133 passes of 2x512-lane blocks plus one single-block tail pass.
std::string histogram_string(const ffr::fault::CampaignResult& c) {
  std::string out;
  for (const ffr::fault::PassShapeCount& shape : c.pass_histogram) {
    if (!out.empty()) out += ";";
    out += std::to_string(shape.width) + "x" + std::to_string(shape.blocks) +
           ":" + std::to_string(shape.passes);
  }
  return out;
}

void write_bench_json(const char* path, const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    const ffr::fault::CampaignResult& c = r.result;
    std::fprintf(
        f,
        "  {\"circuit\": \"%s\", \"mode\": \"%s\", \"threads\": %zu, "
        "\"checkpoint_interval\": %zu, "
        "\"injections_per_ff\": %zu, \"injections\": %llu, "
        "\"proven_injections\": %llu, \"collapsed_injections\": %llu, "
        "\"passes\": %llu, "
        "\"cycles_simulated\": %llu, \"ops_evaluated\": %llu, "
        "\"op_block_evals\": %llu, \"ff_block_ticks\": %llu, "
        "\"checkpoint_restores\": %llu, \"lane_width\": %zu, "
        "\"blocks_per_pass\": %zu, \"pass_histogram\": \"%s\", "
        "\"peak_checkpoint_bytes\": %zu, "
        "\"link_sweep_cycles\": %llu, \"link_sweep_op_block_evals\": %llu, "
        "\"link_sweep_seconds\": %.6f, "
        "\"wall_seconds\": %.6f, \"mean_fdr\": %.9f}%s\n",
        r.circuit.c_str(), r.mode.c_str(), r.threads, r.checkpoint_interval,
        r.injections_per_ff,
        static_cast<unsigned long long>(c.total_injections),
        static_cast<unsigned long long>(c.proven_injections),
        static_cast<unsigned long long>(c.collapsed_injections),
        static_cast<unsigned long long>(c.total_sim_passes),
        static_cast<unsigned long long>(c.cycles_simulated),
        static_cast<unsigned long long>(c.ops_evaluated),
        static_cast<unsigned long long>(c.op_block_evals),
        static_cast<unsigned long long>(c.ff_block_ticks),
        static_cast<unsigned long long>(c.checkpoint_restores),
        c.lanes_per_pass / std::max<std::size_t>(1, c.blocks_per_pass),
        c.blocks_per_pass, histogram_string(c).c_str(), c.checkpoint_bytes,
        static_cast<unsigned long long>(r.link_sweep.cycles_simulated),
        static_cast<unsigned long long>(r.link_sweep.op_block_evals),
        r.link_sweep.wall_seconds, c.wall_seconds, c.mean_fdr(),
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nmachine-readable results -> %s (%zu records)\n", path,
              records.size());
}

/// Campaign warnings are part of the result contract (e.g. a lane_width
/// request wider than the host, a clamped blocks_per_pass) — print them
/// wherever a row lands in the bench output.
void print_warnings(const ffr::fault::CampaignResult& result) {
  for (const std::string& warning : result.warnings) {
    std::printf("# warning: %s\n", warning.c_str());
  }
}

}  // namespace

int main() {
  using namespace ffr;
  const bench::PaperContext& ctx = bench::paper_context();

  std::printf("== Flat statistical fault injection campaign (paper SS IV-A) ==\n");
  std::printf("paper: 1054 FFs x 170 injections = 179,180 simulations\n");
  const std::size_t passes_per_ff =
      (ctx.injections_per_ff + sim::kNumLanes - 1) / sim::kNumLanes;
  std::printf("ours : %zu FFs x %zu injections = %llu simulations "
              "(%zu packed 64-lane passes)\n\n",
              ctx.num_ffs(), ctx.injections_per_ff,
              static_cast<unsigned long long>(ctx.campaign.total_injections),
              ctx.num_ffs() * passes_per_ff);

  // Failure-class breakdown over all injections.
  fault::ClassCounts total;
  for (const auto& ff : ctx.campaign.per_ff) {
    for (std::size_t c = 0; c < fault::kNumFailureClasses; ++c) {
      total.counts[c] += ff.classes.counts[c];
    }
  }
  std::printf("failure classification of all %llu injections:\n",
              static_cast<unsigned long long>(total.total()));
  util::TablePrinter classes({"Class", "Count", "Share"});
  for (std::size_t c = 0; c < fault::kNumFailureClasses; ++c) {
    classes.add_row(
        {std::string(fault::to_string(static_cast<fault::FailureClass>(c))),
         std::to_string(total.counts[c]),
         util::TablePrinter::format(100.0 * static_cast<double>(total.counts[c]) /
                                        static_cast<double>(total.total()),
                                    1) +
             "%"});
  }
  classes.print();

  // FDR distribution histogram.
  std::printf("\nFDR distribution over flip-flops (mean %.3f):\n",
              ctx.campaign.mean_fdr());
  int hist[10] = {};
  for (const double v : ctx.fdr) {
    int bin = static_cast<int>(v * 10.0);
    if (bin > 9) bin = 9;
    ++hist[bin];
  }
  int peak = 1;
  for (const int h : hist) peak = std::max(peak, h);
  for (int b = 0; b < 10; ++b) {
    const int bar = 50 * hist[b] / peak;
    std::printf("[%.1f,%.1f) %4d |%s\n", b / 10.0, (b + 1) / 10.0, hist[b],
                std::string(static_cast<std::size_t>(bar), '#').c_str());
  }

  // Per-block summary: group flip-flops by register-bus name prefix.
  std::printf("\nper-block mean FDR (register-bus groups):\n");
  std::map<std::string, std::pair<double, int>> blocks;
  const auto ffs = ctx.mac.netlist.flip_flops();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    std::string name = ctx.mac.netlist.cell(ffs[i]).name;
    // Strip "[idx]" and trailing digits to get a block label.
    if (const auto bracket = name.find('['); bracket != std::string::npos) {
      name.resize(bracket);
    }
    while (!name.empty() && std::isdigit(static_cast<unsigned char>(name.back()))) {
      name.pop_back();
    }
    auto& [sum, count] = blocks[name];
    sum += ctx.fdr[i];
    ++count;
  }
  util::TablePrinter block_table({"Block", "#FFs", "mean FDR"});
  for (const auto& [name, agg] : blocks) {
    block_table.add_row({name, std::to_string(agg.second),
                         util::TablePrinter::format(agg.first / agg.second, 3)});
  }
  block_table.print();

  const auto csv = bench::write_series_csv(ctx, "sfi_fdr_per_ff.csv",
                                           {{"fdr", ctx.fdr}});
  std::printf("\nper-FF FDR series -> %s\n", csv.string().c_str());

  // ---- paper-scale campaign: flat vs the engine ------------------------------

  std::printf("\n== Paper-scale campaign: relay_core (flat vs engine) ==\n");
  const circuits::RelayCore relay = circuits::build_relay_core();
  const circuits::RelayTestbench relay_tb = circuits::build_relay_testbench(relay);
  std::printf("# %s (%zu-cycle testbench)\n", relay.netlist.summary().c_str(),
              relay_tb.tb.stimulus.num_cycles());

  util::Stopwatch stopwatch;
  fault::CampaignEngine engine(relay.netlist, relay_tb.tb);
  std::printf("# engine precompute (compiled stimulus + golden run + "
              "checkpoints): %.2fs\n",
              stopwatch.elapsed_seconds());
  // Engine rows carry the engine's replay label and checkpoint interval.
  constexpr const char* kEngineMode = "incremental";
  const std::size_t interval = engine.checkpoints().interval;

  std::vector<BenchRecord> records;
  // The paper context's ground-truth campaign on mac_core at the auto shape:
  // the row on a circuit with flip-flops outside the observable cone, whose
  // injections the engine answers without simulating them.
  records.push_back({"mac_core", kEngineMode, 0,
                     ctx.engine->checkpoints().interval, ctx.injections_per_ff,
                     ctx.campaign, ctx.engine->link_sweep()});
  fault::CampaignConfig full;
  full.injections_per_ff = ctx.injections_per_ff;
  // The headline is pinned to the scalar 64-lane path so its rows stay
  // comparable with the pre-SIMD baselines; the lane-width sweep below
  // measures the SIMD win separately.
  full.lane_width = sim::LaneWidth::k64;
  const fault::CampaignResult flat =
      fault::run_campaign(relay.netlist, relay_tb.tb, engine.golden(), full);
  records.push_back({"relay_core", "flat", full.num_threads, 0,
                     full.injections_per_ff, flat, {}});

  util::TablePrinter headline({"campaign", "injections", "sim passes",
                               "cycles[M]", "ops[G]", "FF-block ticks[M]",
                               "wall[s]", "mean FDR"});
  const auto add_headline = [&](const char* name,
                                const fault::CampaignResult& result) {
    headline.add_row(
        {name, std::to_string(result.total_injections),
         std::to_string(result.total_sim_passes),
         util::TablePrinter::format(
             static_cast<double>(result.cycles_simulated) * 1e-6, 2),
         util::TablePrinter::format(
             static_cast<double>(result.ops_evaluated) * 1e-9, 2),
         util::TablePrinter::format(
             static_cast<double>(result.ff_block_ticks) * 1e-6, 2),
         util::TablePrinter::format(result.wall_seconds, 2),
         util::TablePrinter::format(result.mean_fdr(), 4)});
  };
  add_headline("flat", flat);

  const fault::CampaignResult incremental = engine.run(full);
  print_warnings(incremental);
  add_headline("engine", incremental);
  records.push_back({"relay_core", kEngineMode, full.num_threads, interval,
                     full.injections_per_ff, incremental, engine.link_sweep()});
  headline.print();

  std::printf("engine vs flat: %.1f%% fewer 64-lane passes (%llu -> %llu), "
              "FDR vectors %s\n",
              100.0 *
                  (1.0 - static_cast<double>(incremental.total_sim_passes) /
                             static_cast<double>(flat.total_sim_passes)),
              static_cast<unsigned long long>(flat.total_sim_passes),
              static_cast<unsigned long long>(incremental.total_sim_passes),
              flat.fdr_vector() == incremental.fdr_vector()
                  ? "bit-identical"
                  : "DIVERGED (BUG)");
  std::printf("engine vs flat: %.2fx wall (%.2fs -> %.2fs), %.1f%% fewer "
              "simulated cycles (%llu -> %llu), %.1f%% fewer op evaluations "
              "(%llu -> %llu), %llu checkpoint restores (interval %zu)\n",
              flat.wall_seconds / incremental.wall_seconds, flat.wall_seconds,
              incremental.wall_seconds,
              100.0 * (1.0 - static_cast<double>(incremental.cycles_simulated) /
                                 static_cast<double>(flat.cycles_simulated)),
              static_cast<unsigned long long>(flat.cycles_simulated),
              static_cast<unsigned long long>(incremental.cycles_simulated),
              100.0 * (1.0 - static_cast<double>(incremental.ops_evaluated) /
                                 static_cast<double>(flat.ops_evaluated)),
              static_cast<unsigned long long>(flat.ops_evaluated),
              static_cast<unsigned long long>(incremental.ops_evaluated),
              static_cast<unsigned long long>(incremental.checkpoint_restores),
              interval);
  std::printf("golden checkpoints: %zu bytes bit-packed\n",
              incremental.checkpoint_bytes);
  const fault::CampaignEngine::LinkSweepStats links = engine.link_sweep();
  std::printf("hold links: swept once in the first engine run (%llu cycles, "
              "%llu op-block evals, %.3fs); %llu of %llu injections proven, "
              "%llu collapsed onto another's lane, %llu lanes simulated\n",
              static_cast<unsigned long long>(links.cycles_simulated),
              static_cast<unsigned long long>(links.op_block_evals),
              links.wall_seconds,
              static_cast<unsigned long long>(incremental.proven_injections),
              static_cast<unsigned long long>(incremental.total_injections),
              static_cast<unsigned long long>(incremental.collapsed_injections),
              static_cast<unsigned long long>(incremental.total_injections -
                                              incremental.proven_injections -
                                              incremental.collapsed_injections));

  // ---- SIMD lane-width sweep: 64 / 256 / 512 fault lanes per pass -------------

  std::printf("\nSIMD lane-width sweep (%zu injections/FF, incremental "
              "replay; native width: %s lanes — results are bit-identical "
              "at every width):\n",
              full.injections_per_ff, sim::to_string(sim::native_lane_width()));
  util::TablePrinter width_table({"lanes/pass", "sim passes", "cycles[M]",
                                  "ops[G]", "wall[s]", "vs 64-lane"});
  const auto add_width_row = [&](const fault::CampaignResult& result) {
    width_table.add_row(
        {std::to_string(result.lanes_per_pass),
         std::to_string(result.total_sim_passes),
         util::TablePrinter::format(
             static_cast<double>(result.cycles_simulated) * 1e-6, 2),
         util::TablePrinter::format(
             static_cast<double>(result.ops_evaluated) * 1e-9, 2),
         util::TablePrinter::format(result.wall_seconds, 2),
         util::TablePrinter::format(
             incremental.wall_seconds / result.wall_seconds, 2) +
             "x"});
  };
  // The pinned incremental headline run IS the 64-lane row.
  add_width_row(incremental);
  double best_wide_speedup = 0.0;
  for (const sim::LaneWidth width :
       {sim::LaneWidth::k256, sim::LaneWidth::k512}) {
    fault::CampaignConfig config = full;
    config.lane_width = width;
    // Single-block rows: comparable with the pre-multi-block width sweep.
    config.blocks_per_pass = 1;
    const fault::CampaignResult result = engine.run(config);
    add_width_row(result);
    print_warnings(result);
    records.push_back({"relay_core", kEngineMode, config.num_threads, interval,
                       config.injections_per_ff, result, engine.link_sweep()});
    if (flat.fdr_vector() != result.fdr_vector()) {
      std::printf("# WIDTH %s DIVERGED FROM FLAT REFERENCE (BUG)\n",
                  sim::to_string(width));
    }
    best_wide_speedup = std::max(
        best_wide_speedup, incremental.wall_seconds / result.wall_seconds);
  }
  width_table.print();
  std::printf("SIMD lane blocks: best wide width = %.2fx wall over the "
              "64-lane incremental baseline\n",
              best_wide_speedup);

  // ---- multi-block sweep: lane blocks per pass at the native width -------------

  std::printf("\nmulti-block sweep (%zu injections/FF, incremental replay, "
              "native width; blocks_per_pass multiplies the per-pass fault "
              "lanes — results are bit-identical at every block count):\n",
              full.injections_per_ff);
  util::TablePrinter block_sweep_table(
      {"blocks", "lanes/pass", "sim passes", "schedule", "op-block evals[M]",
       "FF-block ticks[M]", "wall[s]", "vs 64-lane"});
  double best_block_speedup = best_wide_speedup;
  double full_shape_ticks = 0.0;
  double auto_ticks = 0.0;
  for (const std::size_t blocks :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8},
        std::size_t{0}}) {
    fault::CampaignConfig config = full;
    config.lane_width = sim::LaneWidth::kAuto;
    config.blocks_per_pass = blocks;
    const fault::CampaignResult result = engine.run(config);
    print_warnings(result);
    block_sweep_table.add_row(
        {blocks == 0 ? "auto=" + std::to_string(result.blocks_per_pass)
                     : std::to_string(blocks),
         std::to_string(result.lanes_per_pass),
         std::to_string(result.total_sim_passes), histogram_string(result),
         util::TablePrinter::format(
             static_cast<double>(result.op_block_evals) * 1e-6, 2),
         util::TablePrinter::format(
             static_cast<double>(result.ff_block_ticks) * 1e-6, 2),
         util::TablePrinter::format(result.wall_seconds, 2),
         util::TablePrinter::format(
             incremental.wall_seconds / result.wall_seconds, 2) +
             "x"});
    records.push_back({"relay_core", kEngineMode, config.num_threads, interval,
                       config.injections_per_ff, result, engine.link_sweep()});
    if (flat.fdr_vector() != result.fdr_vector()) {
      std::printf("# BLOCKS=%zu DIVERGED FROM FLAT REFERENCE (BUG)\n", blocks);
    }
    best_block_speedup = std::max(
        best_block_speedup, incremental.wall_seconds / result.wall_seconds);
    if (blocks == 0 && result.pass_histogram.size() == 1) {
      // One pass shape: a full tick would capture every FF in every block
      // of every simulated cycle.
      full_shape_ticks = static_cast<double>(relay.netlist.num_flip_flops()) *
                         static_cast<double>(result.blocks_per_pass) *
                         static_cast<double>(result.cycles_simulated);
      auto_ticks = static_cast<double>(result.ff_block_ticks);
    }
  }
  block_sweep_table.print();
  if (full_shape_ticks > 0.0) {
    std::printf("event-driven tick at the auto shape: %.0f FF-block ticks vs "
                "%.0f for a full tick (%.1f%% fewer)\n",
                auto_ticks, full_shape_ticks,
                100.0 * (1.0 - auto_ticks / full_shape_ticks));
  }
  std::printf("multi-block passes: best shape = %.2fx wall over the 64-lane "
              "incremental baseline\n",
              best_block_speedup);

  // ---- k-of-N sharding: mergeable partials vs the unsharded run ----------------

  constexpr std::size_t kShardCount = 3;
  std::printf("\nk-of-N sharding (%zu shards, %zu injections/FF, incremental "
              "replay, 64-lane pinned; each global-schedule pass goes to the "
              "shard with the least estimated work — fault::ShardSpec):\n",
              kShardCount, full.injections_per_ff);
  fault::CampaignConfig shard_config = full;
  std::vector<fault::CampaignPartial> partials;
  util::TablePrinter shard_table(
      {"shard", "injections", "sim passes", "cycles[M]", "wall[s]"});
  for (std::size_t k = 0; k < kShardCount; ++k) {
    shard_config.shard = {k, kShardCount};
    partials.push_back(fault::run_shard(engine, shard_config));
    const fault::CampaignResult& share = partials.back().result;
    print_warnings(share);
    shard_table.add_row(
        {std::to_string(k) + "/" + std::to_string(kShardCount),
         std::to_string(share.total_injections),
         std::to_string(share.total_sim_passes),
         util::TablePrinter::format(
             static_cast<double>(share.cycles_simulated) * 1e-6, 2),
         util::TablePrinter::format(share.wall_seconds, 2)});
    records.push_back({"relay_core",
                       "shard" + std::to_string(k) + "of" +
                           std::to_string(kShardCount),
                       shard_config.num_threads, interval,
                       shard_config.injections_per_ff, share,
                       engine.link_sweep()});
  }
  const fault::CampaignResult merged = fault::merge_partials(partials);
  shard_table.add_row(
      {"merged", std::to_string(merged.total_injections),
       std::to_string(merged.total_sim_passes),
       util::TablePrinter::format(
           static_cast<double>(merged.cycles_simulated) * 1e-6, 2),
       util::TablePrinter::format(merged.wall_seconds, 2)});
  shard_table.print();
  const bool shard_identical =
      merged.fdr_vector() == incremental.fdr_vector() &&
      merged.total_sim_passes == incremental.total_sim_passes &&
      merged.cycles_simulated == incremental.cycles_simulated &&
      merged.ops_evaluated == incremental.ops_evaluated;
  std::printf("merged %zu-shard result vs unsharded incremental run: %s "
              "(FDR vector + pass/cycle/op counters)\n",
              kShardCount,
              shard_identical ? "bit-identical" : "DIVERGED (BUG)");
  records.push_back({"relay_core", "sharded-merge", shard_config.num_threads,
                     interval, shard_config.injections_per_ff, merged,
                     engine.link_sweep()});

  // ---- scheduling sweep: worker threads ---------------------------------------

  std::size_t sweep_injections = 34;
  if (const char* env = std::getenv("FFR_SWEEP_INJECTIONS")) {
    sweep_injections = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }
  const std::size_t hardware = std::thread::hardware_concurrency();
  std::printf("\nscheduling sweep (%zu injections/FF, incremental replay, "
              "hardware = %zu threads; results are identical in every "
              "row):\n",
              sweep_injections, hardware);
  fault::CampaignConfig sweep;
  sweep.injections_per_ff = sweep_injections;
  sweep.lane_width = sim::LaneWidth::k64;  // scheduling rows stay PR-comparable
  std::vector<std::size_t> thread_counts = {1};
  if (hardware >= 2) thread_counts.push_back(2);
  if (hardware > 2) thread_counts.push_back(hardware);
  util::TablePrinter sweep_table({"threads", "wall[s]"});
  for (const std::size_t threads : thread_counts) {
    sweep.num_threads = threads;
    const fault::CampaignResult r = engine.run(sweep);
    sweep_table.add_row({std::to_string(threads),
                         util::TablePrinter::format(r.wall_seconds, 2)});
    records.push_back({"relay_core", kEngineMode, threads, interval,
                       sweep.injections_per_ff, r, engine.link_sweep()});
  }
  sweep_table.print();

  write_bench_json("BENCH_sfi_campaign.json", records);
  return 0;
}
