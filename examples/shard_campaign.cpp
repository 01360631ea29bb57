// shard_campaign: k-of-N campaign sharding across processes, with mergeable
// partial files and resume-from-partial (fault/shard.hpp).
//
// Each invocation runs ONE shard of a fixed campaign and writes its partial
// to the working directory — run the N shards as separate processes (or
// hosts sharing the directory), in any order; re-running a shard whose
// partial already exists resumes from disk and simulates nothing. A final
// `--merge` invocation reassembles the partials into a CampaignResult that
// is bit-identical to the unsharded engine run (`--verify` proves it by
// running the unsharded campaign and diffing FDR + deterministic counters).
//
//   ./build/examples/shard_campaign mac 0/2 /tmp/shards
//   ./build/examples/shard_campaign mac 1/2 /tmp/shards
//   ./build/examples/shard_campaign mac --merge /tmp/shards --verify
//
// circuits: mac | pipeline | relay

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "circuits/pipeline_core.hpp"
#include "circuits/relay_core.hpp"
#include "fault/engine.hpp"
#include "fault/shard.hpp"
#include "util/stopwatch.hpp"

namespace {

struct Design {
  ffr::netlist::Netlist netlist;
  ffr::sim::Testbench tb;
  ffr::fault::CampaignConfig config;  ///< Fixed per circuit: every process
                                      ///< sharding this campaign must agree.
};

Design make_design(const std::string& name) {
  ffr::fault::CampaignConfig config;
  if (name == "mac") {
    ffr::circuits::MacCore core = ffr::circuits::build_mac_core();
    ffr::circuits::MacTestbench bench =
        ffr::circuits::build_mac_testbench(core, {});
    config.injections_per_ff = 32;
    return {std::move(core.netlist), std::move(bench.tb), config};
  }
  if (name == "pipeline") {
    ffr::circuits::PipelineCore core = ffr::circuits::build_pipeline_core();
    ffr::circuits::PipelineTestbench bench =
        ffr::circuits::build_pipeline_testbench(core);
    config.injections_per_ff = 32;
    return {std::move(core.netlist), std::move(bench.tb), config};
  }
  if (name == "relay") {
    ffr::circuits::RelayCore core = ffr::circuits::build_relay_core();
    ffr::circuits::RelayTestbench bench =
        ffr::circuits::build_relay_testbench(core);
    config.injections_per_ff = 16;
    for (std::size_t i = 0; i < core.netlist.num_flip_flops(); i += 7) {
      config.ff_subset.push_back(i);
    }
    return {std::move(core.netlist), std::move(bench.tb), config};
  }
  throw std::runtime_error("unknown circuit '" + name +
                           "' (expected mac, pipeline or relay)");
}

int usage() {
  std::fprintf(stderr,
               "usage: shard_campaign <circuit> <k>/<N> <dir>\n"
               "       shard_campaign <circuit> --merge <dir> [--verify]\n"
               "circuits: mac | pipeline | relay\n");
  return 2;
}

/// Parses "k/N" with k < N; throws on anything else.
ffr::fault::ShardSpec parse_shard(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 == text.size()) {
    throw std::runtime_error("bad shard spec '" + text + "' (expected k/N)");
  }
  ffr::fault::ShardSpec shard;
  shard.index = std::stoull(text.substr(0, slash));
  shard.count = std::stoull(text.substr(slash + 1));
  if (shard.count == 0 || shard.index >= shard.count) {
    throw std::runtime_error("bad shard spec '" + text + "' (need k < N)");
  }
  return shard;
}

int run_one_shard(const Design& design, const ffr::fault::ShardSpec& shard,
                  const std::filesystem::path& dir) {
  ffr::util::Stopwatch stopwatch;
  const ffr::fault::CampaignEngine engine(design.netlist, design.tb);
  const std::string hash = engine.content_hash().hex();
  std::printf("engine   : %s (content %s)\n", design.netlist.summary().c_str(),
              hash.c_str());

  ffr::fault::CampaignConfig config = design.config;
  config.shard = shard;
  bool resumed = false;
  const ffr::fault::CampaignPartial partial =
      ffr::fault::load_or_run_shard(engine, config, dir, &resumed);
  const ffr::fault::CampaignResult& share = partial.result;
  std::printf("shard %zu/%zu: %s — %llu injections (%llu proven, %llu "
              "collapsed = %.1f%% answered by another's lane) in %llu passes, "
              "%llu cycles simulated\n",
              shard.index, shard.count,
              resumed ? "resumed from partial" : "executed",
              static_cast<unsigned long long>(share.total_injections),
              static_cast<unsigned long long>(share.proven_injections),
              static_cast<unsigned long long>(share.collapsed_injections),
              share.total_injections == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(share.collapsed_injections) /
                        static_cast<double>(share.total_injections),
              static_cast<unsigned long long>(share.total_sim_passes),
              static_cast<unsigned long long>(share.cycles_simulated));
  std::printf("partial  : %s\n",
              (dir / ffr::fault::partial_filename(shard.index, shard.count))
                  .string()
                  .c_str());
  std::printf("wall     : %.3f s\n", stopwatch.elapsed_seconds());
  return 0;
}

int merge_dir(const Design& design, const std::filesystem::path& dir,
              bool verify) {
  std::vector<ffr::fault::CampaignPartial> partials;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".partial") {
      partials.push_back(ffr::fault::CampaignPartial::load_file(entry.path()));
    }
  }
  if (partials.empty()) {
    throw std::runtime_error("no .partial files in " + dir.string());
  }
  std::printf("merging  : %zu partials from %s\n", partials.size(),
              dir.string().c_str());
  const ffr::fault::CampaignResult merged =
      ffr::fault::merge_partials(partials);
  std::printf("merged   : %llu injections over %zu flip-flops, %llu passes, "
              "mean FDR %.6f\n",
              static_cast<unsigned long long>(merged.total_injections),
              merged.per_ff.size(),
              static_cast<unsigned long long>(merged.total_sim_passes),
              merged.mean_fdr());

  if (!verify) return 0;

  // The differential proof: re-run the campaign unsharded and require
  // bit-identity in science output and deterministic counters.
  const ffr::fault::CampaignEngine engine(design.netlist, design.tb);
  const ffr::fault::CampaignResult reference = engine.run(design.config);
  std::size_t mismatches = 0;
  const auto check = [&](const char* what, std::uint64_t got,
                         std::uint64_t want) {
    if (got != want) {
      std::printf("MISMATCH : %s %llu != %llu\n", what,
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want));
      ++mismatches;
    }
  };
  check("total_injections", merged.total_injections,
        reference.total_injections);
  check("proven_injections", merged.proven_injections,
        reference.proven_injections);
  check("collapsed_injections", merged.collapsed_injections,
        reference.collapsed_injections);
  check("total_sim_passes", merged.total_sim_passes,
        reference.total_sim_passes);
  check("cycles_simulated", merged.cycles_simulated,
        reference.cycles_simulated);
  check("ops_evaluated", merged.ops_evaluated, reference.ops_evaluated);
  check("op_block_evals", merged.op_block_evals, reference.op_block_evals);
  check("ff_block_ticks", merged.ff_block_ticks, reference.ff_block_ticks);
  check("checkpoint_restores", merged.checkpoint_restores,
        reference.checkpoint_restores);
  if (merged.per_ff.size() != reference.per_ff.size()) {
    std::printf("MISMATCH : %zu flip-flops != %zu\n", merged.per_ff.size(),
                reference.per_ff.size());
    ++mismatches;
  } else {
    for (std::size_t i = 0; i < merged.per_ff.size(); ++i) {
      if (merged.per_ff[i].classes.counts !=
              reference.per_ff[i].classes.counts ||
          merged.per_ff[i].fdr() != reference.per_ff[i].fdr()) {
        std::printf("MISMATCH : ff %s\n", merged.per_ff[i].name.c_str());
        ++mismatches;
      }
    }
  }
  if (mismatches != 0) {
    std::printf("verify   : FAILED (%zu mismatches)\n", mismatches);
    return 1;
  }
  std::printf("verify   : OK — merged result bit-identical to the unsharded "
              "engine run\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return usage();
  try {
    const Design design = make_design(argv[1]);
    const std::string mode = argv[2];
    if (mode == "--merge") {
      const bool verify = argc > 4 && std::string(argv[4]) == "--verify";
      if (argc > 5 || (argc == 5 && !verify)) return usage();
      return merge_dir(design, argv[3], verify);
    }
    if (argc != 4) return usage();
    return run_one_shard(design, parse_shard(mode), argv[3]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shard_campaign: %s\n", e.what());
    return 1;
  }
}
