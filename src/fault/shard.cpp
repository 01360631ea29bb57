#include "fault/shard.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "sim/lane_block.hpp"
#include "util/token_reader.hpp"

namespace ffr::fault {

void CampaignPartial::save(std::ostream& os) const {
  os << "ffr-partial " << kPartialFormatVersion << " campaign_shard\n";
  os << "engine " << engine_hash << '\n';
  os << "shard " << shard_index << ' ' << shard_count << '\n';
  os << "config " << injections_per_ff << ' ' << seed << '\n';
  os << "shape " << result.lanes_per_pass << ' ' << result.blocks_per_pass
     << '\n';
  os << "counters " << result.total_injections << ' '
     << result.proven_injections << ' ' << result.collapsed_injections << ' '
     << result.total_sim_passes << ' '
     << result.cycles_simulated << ' ' << result.ops_evaluated << ' '
     << result.op_block_evals << ' ' << result.ff_block_ticks << ' '
     << result.checkpoint_restores << ' ' << result.checkpoint_bytes << '\n';
  os << "wall ";
  util::write_double(os, result.wall_seconds);
  os << '\n';
  os << "histogram " << result.pass_histogram.size() << '\n';
  for (const PassShapeCount& shape : result.pass_histogram) {
    os << shape.width << ' ' << shape.blocks << ' ' << shape.passes << '\n';
  }
  os << "ffs " << result.per_ff.size() << '\n';
  for (const FfResult& ff : result.per_ff) {
    os << ff.ff_index << ' ' << ff.injections;
    for (const auto count : ff.classes.counts) os << ' ' << count;
    os << ' ' << ff.name.size() << ' ' << ff.name << '\n';
  }
  os << "warnings " << result.warnings.size() << '\n';
  for (const std::string& warning : result.warnings) {
    os << warning.size() << ' ' << warning << '\n';
  }
  os << "end\n";
}

void CampaignPartial::save_file(const std::filesystem::path& path) const {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("CampaignPartial::save_file: cannot open " +
                             path.string());
  }
  save(os);
  os.flush();
  if (!os) {
    throw std::runtime_error("CampaignPartial::save_file: write failed for " +
                             path.string());
  }
}

CampaignPartial CampaignPartial::load(std::istream& is,
                                      const std::string& source) {
  const util::TokenReader r(is, source);
  r.expect_header("ffr-partial", kPartialFormatVersion);
  r.expect("campaign_shard");

  CampaignPartial partial;
  r.expect("engine");
  partial.engine_hash = r.token();
  r.expect("shard");
  partial.shard_index = static_cast<std::size_t>(r.u64());
  partial.shard_count = static_cast<std::size_t>(r.u64());
  if (partial.shard_count == 0 || partial.shard_index >= partial.shard_count) {
    r.fail("shard index " + std::to_string(partial.shard_index) +
           " out of range for " + std::to_string(partial.shard_count) +
           " shards");
  }
  r.expect("config");
  partial.injections_per_ff = static_cast<std::size_t>(r.u64());
  partial.seed = r.u64();
  r.expect("shape");
  partial.result.lanes_per_pass = static_cast<std::size_t>(r.u64());
  partial.result.blocks_per_pass = static_cast<std::size_t>(r.u64());
  r.expect("counters");
  partial.result.total_injections = r.u64();
  partial.result.proven_injections = r.u64();
  partial.result.collapsed_injections = r.u64();
  partial.result.total_sim_passes = r.u64();
  partial.result.cycles_simulated = r.u64();
  partial.result.ops_evaluated = r.u64();
  partial.result.op_block_evals = r.u64();
  partial.result.ff_block_ticks = r.u64();
  partial.result.checkpoint_restores = r.u64();
  partial.result.checkpoint_bytes = static_cast<std::size_t>(r.u64());
  r.expect("wall");
  partial.result.wall_seconds = r.dbl();

  r.expect("histogram");
  const std::uint64_t num_shapes = r.u64(std::uint64_t{1} << 20);
  for (std::uint64_t i = 0; i < num_shapes; ++i) {
    PassShapeCount shape;
    shape.width = static_cast<std::size_t>(r.u64());
    shape.blocks = static_cast<std::size_t>(r.u64());
    shape.passes = r.u64();
    partial.result.pass_histogram.push_back(shape);
  }

  r.expect("ffs");
  const std::uint64_t num_ffs = r.u64(std::uint64_t{1} << 32);
  for (std::uint64_t i = 0; i < num_ffs; ++i) {
    FfResult ff;
    ff.ff_index = static_cast<std::size_t>(r.u64());
    ff.injections = r.u64();
    std::uint64_t class_total = 0;
    for (auto& count : ff.classes.counts) {
      count = r.u64();
      class_total += count;
    }
    if (class_total != ff.injections) {
      r.fail("flip-flop " + std::to_string(ff.ff_index) +
             " class counts sum to " + std::to_string(class_total) +
             " but injections is " + std::to_string(ff.injections));
    }
    ff.name = r.bytes();
    partial.result.per_ff.push_back(std::move(ff));
  }

  r.expect("warnings");
  const std::uint64_t num_warnings = r.u64(std::uint64_t{1} << 16);
  for (std::uint64_t i = 0; i < num_warnings; ++i) {
    partial.result.warnings.push_back(r.bytes());
  }
  r.expect("end");

  // Cross-field integrity: the counters must agree with the rows they
  // summarize, so a file corrupted in either place is rejected here instead
  // of poisoning a merge.
  std::uint64_t injection_total = 0;
  for (const FfResult& ff : partial.result.per_ff) {
    injection_total += ff.injections;
  }
  if (injection_total != partial.result.total_injections) {
    r.fail("per-flip-flop injections sum to " +
           std::to_string(injection_total) + " but total_injections is " +
           std::to_string(partial.result.total_injections));
  }
  // Compared as a difference: the sum of two arbitrary 64-bit counts can
  // wrap.
  if (partial.result.proven_injections > partial.result.total_injections ||
      partial.result.collapsed_injections >
          partial.result.total_injections - partial.result.proven_injections) {
    r.fail("proven_injections " +
           std::to_string(partial.result.proven_injections) +
           " plus collapsed_injections " +
           std::to_string(partial.result.collapsed_injections) +
           " exceeds total_injections " +
           std::to_string(partial.result.total_injections));
  }
  std::uint64_t pass_total = 0;
  for (const PassShapeCount& shape : partial.result.pass_histogram) {
    pass_total += shape.passes;
  }
  if (pass_total != partial.result.total_sim_passes) {
    r.fail("pass histogram sums to " + std::to_string(pass_total) +
           " but total_sim_passes is " +
           std::to_string(partial.result.total_sim_passes));
  }
  return partial;
}

CampaignPartial CampaignPartial::load_file(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("CampaignPartial::load_file: cannot open " +
                             path.string());
  }
  return load(is, path.string());
}

std::string partial_filename(std::size_t index, std::size_t count) {
  return "shard_" + std::to_string(index) + "_of_" + std::to_string(count) +
         ".partial";
}

CampaignPartial run_shard(const CampaignEngine& engine,
                          const CampaignConfig& config) {
  CampaignPartial partial;
  partial.engine_hash = engine.content_hash().hex();
  partial.shard_index = config.shard.index;
  partial.shard_count = config.shard.count;
  partial.injections_per_ff = config.injections_per_ff;
  partial.seed = config.seed;
  partial.result = engine.run(config);
  return partial;
}

CampaignPartial load_or_run_shard(const CampaignEngine& engine,
                                  const CampaignConfig& config,
                                  const std::filesystem::path& dir,
                                  bool* resumed) {
  const std::filesystem::path path =
      dir / partial_filename(config.shard.index, config.shard.count);
  if (std::filesystem::exists(path)) {
    CampaignPartial partial = CampaignPartial::load_file(path);
    const auto mismatch = [&path](const std::string& what) {
      return std::runtime_error(path.string() +
                                ": partial does not match this campaign (" +
                                what + ")");
    };
    const std::string engine_hash = engine.content_hash().hex();
    if (partial.engine_hash != engine_hash) {
      throw mismatch("engine content hash " + partial.engine_hash +
                     ", expected " + engine_hash);
    }
    if (partial.shard_index != config.shard.index ||
        partial.shard_count != config.shard.count) {
      throw mismatch("shard " + std::to_string(partial.shard_index) + "/" +
                     std::to_string(partial.shard_count) + ", expected " +
                     std::to_string(config.shard.index) + "/" +
                     std::to_string(config.shard.count));
    }
    if (partial.injections_per_ff != config.injections_per_ff ||
        partial.seed != config.seed) {
      throw mismatch("campaign config differs");
    }
    // The partial records the RESOLVED pass shape; re-resolve the request on
    // this host so a kAuto partial from a wider machine is rejected instead
    // of merging a different pass schedule.
    const sim::ResolvedLaneWidth resolved =
        sim::resolve_lane_width(config.lane_width);
    const std::size_t block_lanes = sim::lanes_of(resolved.width);
    const std::size_t blocks = resolve_blocks_per_pass(
        config.blocks_per_pass, block_lanes, engine.netlist().num_nets(),
        nullptr);
    if (partial.result.lanes_per_pass != block_lanes * blocks ||
        partial.result.blocks_per_pass != blocks) {
      throw mismatch(
          "pass shape " + std::to_string(partial.result.lanes_per_pass) + "x" +
          std::to_string(partial.result.blocks_per_pass) + " blocks, expected " +
          std::to_string(block_lanes * blocks) + "x" + std::to_string(blocks));
    }
    if (resumed != nullptr) *resumed = true;
    return partial;
  }
  CampaignPartial partial = run_shard(engine, config);
  partial.save_file(path);
  if (resumed != nullptr) *resumed = false;
  return partial;
}

CampaignResult merge_partials(const std::vector<CampaignPartial>& partials) {
  const auto fail = [](const std::string& what) {
    return std::runtime_error("merge_partials: " + what);
  };
  if (partials.empty()) throw fail("no partials to merge");
  const CampaignPartial& ref = partials.front();
  if (partials.size() != ref.shard_count) {
    throw fail("have " + std::to_string(partials.size()) +
               " partials but the campaign has " +
               std::to_string(ref.shard_count) + " shards");
  }

  // Index the partials by shard id: merging iterates 0..N-1, so the result
  // is independent of the order the caller collected them in.
  std::vector<const CampaignPartial*> by_index(ref.shard_count, nullptr);
  for (const CampaignPartial& partial : partials) {
    if (partial.engine_hash != ref.engine_hash) {
      throw fail("engine content hash mismatch: " + partial.engine_hash +
                 " vs " + ref.engine_hash);
    }
    if (partial.shard_count != ref.shard_count) {
      throw fail("shard count mismatch: " +
                 std::to_string(partial.shard_count) + " vs " +
                 std::to_string(ref.shard_count));
    }
    if (partial.injections_per_ff != ref.injections_per_ff ||
        partial.seed != ref.seed) {
      throw fail("campaign config mismatch at shard " +
                 std::to_string(partial.shard_index));
    }
    if (partial.result.lanes_per_pass != ref.result.lanes_per_pass ||
        partial.result.blocks_per_pass != ref.result.blocks_per_pass) {
      throw fail("pass shape mismatch at shard " +
                 std::to_string(partial.shard_index) +
                 " (partials from hosts that resolved kAuto differently "
                 "cannot merge)");
    }
    if (partial.result.checkpoint_bytes != ref.result.checkpoint_bytes) {
      throw fail("checkpoint footprint mismatch at shard " +
                 std::to_string(partial.shard_index));
    }
    if (partial.result.per_ff.size() != ref.result.per_ff.size()) {
      throw fail("shard " + std::to_string(partial.shard_index) + " covers " +
                 std::to_string(partial.result.per_ff.size()) +
                 " flip-flops, expected " +
                 std::to_string(ref.result.per_ff.size()));
    }
    if (partial.shard_index >= ref.shard_count) {
      throw fail("shard index " + std::to_string(partial.shard_index) +
                 " out of range");
    }
    if (by_index[partial.shard_index] != nullptr) {
      throw fail("duplicate shard index " +
                 std::to_string(partial.shard_index));
    }
    by_index[partial.shard_index] = &partial;
  }
  // partials.size() == shard_count and no duplicates => every slot is filled.

  CampaignResult merged;
  merged.lanes_per_pass = ref.result.lanes_per_pass;
  merged.blocks_per_pass = ref.result.blocks_per_pass;
  merged.checkpoint_bytes = ref.result.checkpoint_bytes;
  merged.per_ff.resize(ref.result.per_ff.size());
  for (std::size_t i = 0; i < merged.per_ff.size(); ++i) {
    merged.per_ff[i].ff_index = ref.result.per_ff[i].ff_index;
    merged.per_ff[i].name = ref.result.per_ff[i].name;
  }

  for (std::size_t k = 0; k < ref.shard_count; ++k) {
    const CampaignResult& shard = by_index[k]->result;
    for (std::size_t i = 0; i < merged.per_ff.size(); ++i) {
      const FfResult& ff = shard.per_ff[i];
      if (ff.ff_index != merged.per_ff[i].ff_index ||
          ff.name != merged.per_ff[i].name) {
        throw fail("shard " + std::to_string(k) + " row " + std::to_string(i) +
                   " targets flip-flop " + std::to_string(ff.ff_index) + " '" +
                   ff.name + "', expected " +
                   std::to_string(merged.per_ff[i].ff_index) + " '" +
                   merged.per_ff[i].name + "'");
      }
      merged.per_ff[i].injections += ff.injections;
      for (std::size_t c = 0; c < kNumFailureClasses; ++c) {
        merged.per_ff[i].classes.counts[c] += ff.classes.counts[c];
      }
    }
    merged.total_injections += shard.total_injections;
    merged.proven_injections += shard.proven_injections;
    merged.collapsed_injections += shard.collapsed_injections;
    merged.total_sim_passes += shard.total_sim_passes;
    merged.cycles_simulated += shard.cycles_simulated;
    merged.ops_evaluated += shard.ops_evaluated;
    merged.op_block_evals += shard.op_block_evals;
    merged.ff_block_ticks += shard.ff_block_ticks;
    merged.checkpoint_restores += shard.checkpoint_restores;
    merged.wall_seconds += shard.wall_seconds;
    for (const PassShapeCount& shape : shard.pass_histogram) {
      auto it = std::find_if(merged.pass_histogram.begin(),
                             merged.pass_histogram.end(),
                             [&](const PassShapeCount& s) {
                               return s.width == shape.width &&
                                      s.blocks == shape.blocks;
                             });
      if (it == merged.pass_histogram.end()) {
        merged.pass_histogram.push_back(shape);
      } else {
        it->passes += shape.passes;
      }
    }
    // Per-shard runs re-emit the same configuration warnings N times;
    // merging keeps one copy of each, first occurrence first.
    for (const std::string& warning : shard.warnings) {
      if (std::find(merged.warnings.begin(), merged.warnings.end(), warning) ==
          merged.warnings.end()) {
        merged.warnings.push_back(warning);
      }
    }
  }

  // The shard shares of every flip-flop must reassemble the full campaign.
  for (const FfResult& ff : merged.per_ff) {
    if (ff.injections != ref.injections_per_ff) {
      throw fail("flip-flop " + std::to_string(ff.ff_index) +
                 " shard shares sum to " + std::to_string(ff.injections) +
                 " injections, expected " +
                 std::to_string(ref.injections_per_ff));
    }
  }

  // Most blocks first — the order the unsharded engine's schedule emits
  // shapes in, so the merged histogram is bit-identical to its.
  std::sort(merged.pass_histogram.begin(), merged.pass_histogram.end(),
            [](const PassShapeCount& a, const PassShapeCount& b) {
              return a.width != b.width ? a.width > b.width
                                        : a.blocks > b.blocks;
            });
  return merged;
}

CampaignResult run_sharded_campaign(const CampaignEngine& engine,
                                    const CampaignConfig& config,
                                    const std::filesystem::path& dir,
                                    ResumeReport* report) {
  if (config.shard.count == 0) {
    throw std::invalid_argument(
        "run_sharded_campaign: shard count must be >= 1");
  }
  std::filesystem::create_directories(dir);
  std::vector<CampaignPartial> partials;
  partials.reserve(config.shard.count);
  ResumeReport local;
  for (std::size_t k = 0; k < config.shard.count; ++k) {
    CampaignConfig shard_config = config;
    shard_config.shard.index = k;
    bool resumed = false;
    partials.push_back(
        load_or_run_shard(engine, shard_config, dir, &resumed));
    if (resumed) {
      local.resumed.push_back(k);
    } else {
      local.executed.push_back(k);
      local.passes_executed += partials.back().result.total_sim_passes;
      local.cycles_executed += partials.back().result.cycles_simulated;
    }
  }
  if (report != nullptr) *report = std::move(local);
  return merge_partials(partials);
}

}  // namespace ffr::fault
