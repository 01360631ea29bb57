#include "bench/bench_common.hpp"

#include <cstdio>
#include <cstdlib>

#include "fault/engine.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"

namespace ffr::bench {

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

std::filesystem::path env_path(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

// Builds the context in place: ctx must already live at its final address,
// because the engine keeps references into ctx.mac / ctx.workload.
void build_context(PaperContext& ctx) {
  util::Stopwatch stopwatch;
  ctx.injections_per_ff = env_size("FFR_INJECTIONS", 170);
  ctx.results_dir = env_path("FFR_RESULTS_DIR", "ffr_results");
  std::filesystem::create_directories(ctx.results_dir);

  ctx.mac = circuits::build_mac_core();
  ctx.workload = circuits::build_mac_testbench(ctx.mac, {});
  // One batched engine serves the golden run, the ground-truth campaign and
  // every bench that sweeps flows on the same pair.
  ctx.engine =
      std::make_unique<fault::CampaignEngine>(ctx.mac.netlist, ctx.workload.tb);
  ctx.golden = ctx.engine->golden();
  ctx.features = features::extract_features(ctx.mac.netlist, ctx.golden.activity);
  std::printf("# %s\n", ctx.mac.netlist.summary().c_str());
  std::printf("# workload: %zu frames, %zu cycles, golden delivers %zu frames\n",
              ctx.workload.sent_payloads.size(),
              ctx.workload.tb.stimulus.num_cycles(), ctx.golden.frames.size());

  fault::CampaignConfig config;
  config.injections_per_ff = ctx.injections_per_ff;
  ctx.campaign = ctx.engine->run(config);
  ctx.fdr = ctx.campaign.fdr_vector();
  std::printf(
      "# batched SFI campaign: %zu FFs x %zu injections = %llu runs (%.1fs), "
      "mean FDR %.3f\n\n",
      ctx.num_ffs(), ctx.injections_per_ff,
      static_cast<unsigned long long>(ctx.campaign.total_injections),
      stopwatch.elapsed_seconds(), ctx.campaign.mean_fdr());
}

}  // namespace

const PaperContext& paper_context() {
  static PaperContext ctx;
  static const bool built = (build_context(ctx), true);
  (void)built;
  return ctx;
}

std::vector<ml::Split> paper_splits(const PaperContext& ctx, std::uint64_t seed) {
  return ml::stratified_k_fold(ctx.fdr, 10, seed);
}

std::filesystem::path write_series_csv(
    const PaperContext& ctx, const std::string& filename,
    const std::vector<std::pair<std::string, std::vector<double>>>& columns) {
  util::CsvTable table;
  std::size_t rows = 0;
  for (const auto& [name, values] : columns) {
    table.header.push_back(name);
    rows = std::max(rows, values.size());
  }
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (const auto& [name, values] : columns) {
      row.push_back(r < values.size() ? util::CsvWriter::format_double(values[r])
                                      : "");
    }
    table.rows.push_back(std::move(row));
  }
  const std::filesystem::path path = ctx.results_dir / filename;
  util::write_csv_file(path, table);
  return path;
}

}  // namespace ffr::bench
