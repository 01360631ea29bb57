// Differential shard-equivalence harness for sharded campaigns
// (fault/shard.hpp): for every shard count, merge order, lane width and
// thread count, merge_partials() over the k-of-N partials must
// reconstruct the unsharded CampaignEngine::run bit-identically — per-FF
// class counts, FDR vector and every deterministic cost counter included —
// and match the flat run_campaign science reference. Also covers the partial
// text format round-trip, crash-recovery (truncated / corrupt /
// wrong-version / wrong-hash partials rejected with positioned errors,
// missing shards re-run exactly), the engine's own content key guarding
// resume against another design, stimulus or seed, warning deduplication
// on merge, and the cost balance of round-robin pass ownership.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "circuits/pipeline_core.hpp"
#include "fault/campaign.hpp"
#include "fault/engine.hpp"
#include "fault/shard.hpp"
#include "netlist/verilog_reader.hpp"
#include "netlist/verilog_writer.hpp"
#include "positioned_error.hpp"
#include "service/content_hash.hpp"
#include "service/engine_registry.hpp"
#include "sim/testbench.hpp"

namespace ffr::fault {
namespace {

using ffr::testing_support::expect_positioned_error;

/// Full bit-identity: science output AND every deterministic cost counter.
/// (wall_seconds is wall clock and intentionally not compared.)
void expect_result_identical(const CampaignResult& a, const CampaignResult& b) {
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
    EXPECT_EQ(fdr_a[i], fdr_b[i]) << "ff " << i;
  }
  EXPECT_EQ(a.total_injections, b.total_injections);
  EXPECT_EQ(a.proven_injections, b.proven_injections);
  EXPECT_EQ(a.collapsed_injections, b.collapsed_injections);
  EXPECT_EQ(a.total_sim_passes, b.total_sim_passes);
  EXPECT_EQ(a.lanes_per_pass, b.lanes_per_pass);
  EXPECT_EQ(a.blocks_per_pass, b.blocks_per_pass);
  ASSERT_EQ(a.pass_histogram.size(), b.pass_histogram.size());
  for (std::size_t i = 0; i < a.pass_histogram.size(); ++i) {
    EXPECT_EQ(a.pass_histogram[i].width, b.pass_histogram[i].width)
        << "shape " << i;
    EXPECT_EQ(a.pass_histogram[i].blocks, b.pass_histogram[i].blocks)
        << "shape " << i;
    EXPECT_EQ(a.pass_histogram[i].passes, b.pass_histogram[i].passes)
        << "shape " << i;
  }
  EXPECT_EQ(a.cycles_simulated, b.cycles_simulated);
  EXPECT_EQ(a.ops_evaluated, b.ops_evaluated);
  EXPECT_EQ(a.op_block_evals, b.op_block_evals);
  EXPECT_EQ(a.ff_block_ticks, b.ff_block_ticks);
  EXPECT_EQ(a.checkpoint_restores, b.checkpoint_restores);
  EXPECT_EQ(a.checkpoint_bytes, b.checkpoint_bytes);
  EXPECT_EQ(a.warnings, b.warnings);
}

/// Science-only identity against the flat reference (its pass accounting
/// legitimately differs from the batched engine's).
void expect_science_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.per_ff.size(), b.per_ff.size());
  for (std::size_t i = 0; i < a.per_ff.size(); ++i) {
    EXPECT_EQ(a.per_ff[i].ff_index, b.per_ff[i].ff_index) << "ff " << i;
    EXPECT_EQ(a.per_ff[i].injections, b.per_ff[i].injections) << "ff " << i;
    EXPECT_EQ(a.per_ff[i].classes.counts, b.per_ff[i].classes.counts)
        << "ff " << i;
  }
  EXPECT_EQ(a.fdr_vector(), b.fdr_vector());
  EXPECT_EQ(a.total_injections, b.total_injections);
}

/// Runs all N shards of `config` and returns the partials in shard order.
std::vector<CampaignPartial> run_all_shards(const CampaignEngine& engine,
                                            CampaignConfig config,
                                            std::size_t count) {
  std::vector<CampaignPartial> partials;
  partials.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    config.shard = ShardSpec{k, count};
    partials.push_back(run_shard(engine, config));
  }
  return partials;
}

struct MacShardFixture : public ::testing::Test {
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

  /// Small but multi-pass campaign: a subset spanning the census with
  /// enough injections for several 64-lane passes.
  static CampaignConfig base_config() {
    CampaignConfig config;
    config.injections_per_ff = 24;
    config.num_threads = 2;
    for (std::size_t i = 0; i < mac->netlist.num_flip_flops(); i += 7) {
      config.ff_subset.push_back(i);
    }
    return config;
  }

  static circuits::MacCore* mac;
  static circuits::MacTestbench* bench;
  static CampaignEngine* engine;
};

circuits::MacCore* MacShardFixture::mac = nullptr;
circuits::MacTestbench* MacShardFixture::bench = nullptr;
CampaignEngine* MacShardFixture::engine = nullptr;

// ---- merge property: every N, every permutation -----------------------------

TEST_F(MacShardFixture, EveryPermutationMergesBitIdenticalToUnsharded) {
  const CampaignConfig config = base_config();
  const CampaignResult unsharded = engine->run(config);
  // The subset holds flip-flops outside the observable cone, whose
  // injections shard 0 answers without lanes, and hold chains whose
  // injections share a lane, answered by the shard that owns it.
  ASSERT_GT(unsharded.proven_injections, 0u);
  ASSERT_GT(unsharded.collapsed_injections, 0u);
  const CampaignResult flat =
      run_campaign(mac->netlist, bench->tb, engine->golden(), config);

  for (const std::size_t count : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{7}}) {
    const std::vector<CampaignPartial> partials =
        run_all_shards(*engine, config, count);

    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::size_t permutations = 0;
    do {
      std::vector<CampaignPartial> shuffled;
      shuffled.reserve(count);
      for (const std::size_t k : order) shuffled.push_back(partials[k]);
      const CampaignResult merged = merge_partials(shuffled);
      expect_result_identical(merged, unsharded);
      expect_science_identical(merged, flat);
      ++permutations;
      if (::testing::Test::HasFailure()) {
        FAIL() << "first failing permutation of N=" << count;
      }
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_GT(permutations, 0u);
  }
}

TEST_F(MacShardFixture, ShardSharesArePartialAndDisjoint) {
  // Pin the scalar width: at kAuto a wide host packs this whole campaign
  // into one or two passes, leaving nothing for shards 1 and 2 to own.
  CampaignConfig config = base_config();
  config.lane_width = sim::LaneWidth::k64;
  const std::vector<CampaignPartial> partials =
      run_all_shards(*engine, config, 3);
  std::uint64_t passes = 0;
  for (const CampaignPartial& partial : partials) {
    // Every shard did real, strictly partial work.
    EXPECT_GT(partial.result.total_sim_passes, 0u);
    EXPECT_LT(partial.result.total_injections,
              config.injections_per_ff * config.ff_subset.size());
    for (const FfResult& ff : partial.result.per_ff) {
      EXPECT_EQ(ff.classes.total(), ff.injections) << ff.name;
    }
    passes += partial.result.total_sim_passes;
  }
  EXPECT_EQ(passes, engine->run(config).total_sim_passes);
}

TEST_F(MacShardFixture, MergeHoldsAcrossWidthsAndThreads) {
  for (const sim::LaneWidth width :
       {sim::LaneWidth::k64, sim::LaneWidth::kAuto}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      CampaignConfig config = base_config();
      config.lane_width = width;
      config.num_threads = threads;
      const CampaignResult unsharded = engine->run(config);
      const CampaignResult merged =
          merge_partials(run_all_shards(*engine, config, 3));
      expect_result_identical(merged, unsharded);
      if (::testing::Test::HasFailure()) {
        FAIL() << "width=" << static_cast<int>(width)
               << " threads=" << threads;
      }
    }
  }
}

TEST_F(MacShardFixture, MoreShardsThanPassesLeavesEmptyShards) {
  CampaignConfig config;
  config.injections_per_ff = 16;
  config.ff_subset = {0, 1};  // 32 jobs: a single 64-lane pass
  config.lane_width = sim::LaneWidth::k64;
  const CampaignResult unsharded = engine->run(config);
  ASSERT_EQ(unsharded.total_sim_passes, 1u);
  const std::vector<CampaignPartial> partials =
      run_all_shards(*engine, config, 7);
  for (std::size_t k = 1; k < partials.size(); ++k) {
    EXPECT_EQ(partials[k].result.total_sim_passes, 0u) << "shard " << k;
    EXPECT_EQ(partials[k].result.total_injections, 0u) << "shard " << k;
  }
  expect_result_identical(merge_partials(partials), unsharded);
}

TEST(MacShardBalance, RoundRobinOwnershipBalancesShardCost) {
  // Round-robin pass ownership must spread a campaign's cost, not just its
  // passes. Under the (segment, flip-flop, cycle) job order, passes of one
  // segment carry different flip-flops' cones, so a shard's cost is set by
  // which flip-flop groups it draws. On the full-size mac_core (592 64-lane
  // passes) no shard may do more than 1.15x the op-block work of another.
  // Campaigns with only a dozen passes per segment can alias with the
  // 3-way rotation, so this bounds the full-size case only.
  const circuits::MacCore mac = circuits::build_mac_core();
  const circuits::MacTestbench bench = circuits::build_mac_testbench(mac);
  const CampaignEngine engine(mac.netlist, bench.tb);
  CampaignConfig config;
  config.injections_per_ff = 40;
  config.num_threads = 2;
  config.lane_width = sim::LaneWidth::k64;
  config.blocks_per_pass = 1;
  const std::vector<CampaignPartial> partials =
      run_all_shards(engine, config, 3);
  std::uint64_t smallest = partials.front().result.op_block_evals;
  std::uint64_t largest = smallest;
  for (const CampaignPartial& partial : partials) {
    smallest = std::min(smallest, partial.result.op_block_evals);
    largest = std::max(largest, partial.result.op_block_evals);
  }
  ASSERT_GT(smallest, 0u);
  EXPECT_LE(static_cast<double>(largest), 1.15 * static_cast<double>(smallest))
      << "largest shard " << largest << " vs smallest " << smallest;
}

TEST_F(MacShardFixture, EngineRejectsInvalidShardSpec) {
  CampaignConfig config = base_config();
  config.shard = ShardSpec{0, 0};
  EXPECT_THROW((void)engine->run(config), std::invalid_argument);
  config.shard = ShardSpec{3, 3};
  EXPECT_THROW((void)engine->run(config), std::invalid_argument);
}

TEST_F(MacShardFixture, WarningsDeduplicatedOnMerge) {
  CampaignConfig config = base_config();
  config.lane_width = sim::LaneWidth::k64;
  config.blocks_per_pass = sim::kMaxLaneBlocksPerPass + 5;  // clamp warning
  const CampaignResult unsharded = engine->run(config);
  ASSERT_EQ(unsharded.warnings.size(), 1u);
  const std::vector<CampaignPartial> partials =
      run_all_shards(*engine, config, 3);
  for (const CampaignPartial& partial : partials) {
    EXPECT_EQ(partial.result.warnings, unsharded.warnings);
  }
  const CampaignResult merged = merge_partials(partials);
  // The fix under test: N shards each re-emit the same configuration
  // warning; the merge keeps one copy, not N.
  EXPECT_EQ(merged.warnings, unsharded.warnings);
  expect_result_identical(merged, unsharded);
}

// ---- merge validation -------------------------------------------------------

TEST_F(MacShardFixture, MergeRejectsInconsistentPartialSets) {
  CampaignConfig config = base_config();
  const std::vector<CampaignPartial> partials =
      run_all_shards(*engine, config, 3);

  EXPECT_THROW((void)merge_partials({}), std::runtime_error);

  // Missing shard: two partials of a 3-shard campaign.
  EXPECT_THROW((void)merge_partials({partials[0], partials[2]}),
               std::runtime_error);

  // Duplicated shard index.
  EXPECT_THROW((void)merge_partials({partials[0], partials[1], partials[1]}),
               std::runtime_error);

  // Foreign engine hash.
  {
    std::vector<CampaignPartial> tampered = partials;
    tampered[1].engine_hash = "0000000000000000ffffffffffffffff";
    EXPECT_THROW((void)merge_partials(tampered), std::runtime_error);
  }

  // Different campaign config (seed).
  {
    std::vector<CampaignPartial> tampered = partials;
    tampered[2].seed ^= 1;
    EXPECT_THROW((void)merge_partials(tampered), std::runtime_error);
  }

  // Shards of different campaigns must not mix even at matching N.
  {
    CampaignConfig other = config;
    other.injections_per_ff += 8;
    const std::vector<CampaignPartial> foreign =
        run_all_shards(*engine, other, 3);
    EXPECT_THROW(
        (void)merge_partials({partials[0], foreign[1], partials[2]}),
        std::runtime_error);
  }
}

// ---- partial serialization --------------------------------------------------

TEST_F(MacShardFixture, PartialRoundTripsThroughTextFormat) {
  CampaignConfig config = base_config();
  config.seed = 0xFFFF'FFFF'FFFF'FFFFULL;  // exercise full 64-bit fields
  config.shard = ShardSpec{1, 3};
  const CampaignPartial original = run_shard(*engine, config);

  std::stringstream stream;
  original.save(stream);
  const CampaignPartial loaded = CampaignPartial::load(stream, "<roundtrip>");

  EXPECT_EQ(loaded.engine_hash, original.engine_hash);
  EXPECT_EQ(loaded.shard_index, original.shard_index);
  EXPECT_EQ(loaded.shard_count, original.shard_count);
  EXPECT_EQ(loaded.injections_per_ff, original.injections_per_ff);
  EXPECT_EQ(loaded.seed, original.seed);
  expect_result_identical(loaded.result, original.result);
  EXPECT_EQ(loaded.result.wall_seconds, original.result.wall_seconds);

  // save -> load -> save writes the same bytes.
  std::stringstream resaved;
  loaded.save(resaved);
  EXPECT_EQ(resaved.str(), stream.str());
}

TEST_F(MacShardFixture, PartialFileRoundTripAndMerge) {
  const auto dir =
      std::filesystem::temp_directory_path() / "ffr_shard_roundtrip";
  std::filesystem::remove_all(dir);
  CampaignConfig config = base_config();
  std::vector<CampaignPartial> reloaded;
  for (std::size_t k = 0; k < 3; ++k) {
    config.shard = ShardSpec{k, 3};
    const CampaignPartial partial = run_shard(*engine, config);
    const auto path = dir / partial_filename(k, 3);
    partial.save_file(path);
    reloaded.push_back(CampaignPartial::load_file(path));
  }
  config.shard = ShardSpec{};
  expect_result_identical(merge_partials(reloaded), engine->run(config));
  std::filesystem::remove_all(dir);
}

TEST_F(MacShardFixture, LoadRejectsTruncatedCorruptAndWrongVersion) {
  CampaignConfig config = base_config();
  config.shard = ShardSpec{0, 2};
  const CampaignPartial partial = run_shard(*engine, config);
  std::stringstream reference;
  partial.save(reference);
  const std::string text = reference.str();

  // Truncation at any structural boundary is caught by a missing token or
  // the absent 'end' sentinel.
  for (const double fraction : {0.1, 0.5, 0.9}) {
    std::stringstream truncated(
        text.substr(0, static_cast<std::size_t>(text.size() * fraction)));
    EXPECT_THROW((void)CampaignPartial::load(truncated, "<truncated>"),
                 std::runtime_error);
  }
  {
    // Removing only the sentinel still fails, even though all data is there.
    std::stringstream no_end(text.substr(0, text.rfind("end")));
    expect_positioned_error(
        [&] { (void)CampaignPartial::load(no_end, "<no-end>"); }, "<no-end>",
        "end of stream");
  }
  {
    std::string corrupt = text;
    corrupt.replace(corrupt.find("counters"), 8, "cnutoers");
    std::stringstream is(corrupt);
    expect_positioned_error(
        [&] { (void)CampaignPartial::load(is, "<corrupt>"); }, "<corrupt>",
        "expected 'counters'");
  }
  {
    // A future version and the previous ones are all refused: version 1
    // lacked the op_block_evals / ff_block_ticks counters, version 2
    // carried the replay mode and checkpoint interval in `config`, version
    // 3 shards were cut from the cycle-only job order, version 4 lacked
    // proven_injections, version 5 re-sliced the tail into narrower
    // passes and carried checkpoint_bytes_unpacked, version 6 lacked
    // collapsed_injections and gave every injection its own lane, and
    // version 7 counted a copy of the golden frames in checkpoint_bytes.
    const std::string header =
        "ffr-partial " + std::to_string(kPartialFormatVersion);
    ASSERT_EQ(text.find(header), 0u);
    for (const char* version : {"9", "7", "6", "5", "4", "3", "2", "1"}) {
      std::string wrong_version = text;
      wrong_version.replace(0, header.size(),
                            std::string("ffr-partial ") + version);
      std::stringstream is(wrong_version);
      expect_positioned_error(
          [&] { (void)CampaignPartial::load(is, "<version>"); }, "<version>",
          std::string("unsupported format version ") + version);
    }
  }
  {
    // More proven injections than injections.
    std::string too_many_proven = text;
    const std::size_t pos = too_many_proven.find("counters ");
    ASSERT_NE(pos, std::string::npos);
    std::istringstream fields(too_many_proven.substr(pos));
    std::string tag, total, proven;
    fields >> tag >> total >> proven;
    const std::size_t proven_pos = pos + tag.size() + 1 + total.size() + 1;
    too_many_proven.replace(proven_pos, proven.size(),
                            std::to_string(std::stoull(total) + 1));
    std::stringstream is(too_many_proven);
    expect_positioned_error(
        [&] { (void)CampaignPartial::load(is, "<proven>"); }, "<proven>",
        "exceeds total_injections");
  }
  {
    // Proven plus collapsed injections beyond the total: a collapsed count
    // one more than the proven ones leave.
    std::string too_many_collapsed = text;
    const std::size_t pos = too_many_collapsed.find("counters ");
    ASSERT_NE(pos, std::string::npos);
    std::istringstream fields(too_many_collapsed.substr(pos));
    std::string tag, total, proven, collapsed;
    fields >> tag >> total >> proven >> collapsed;
    ASSERT_LE(std::stoull(proven), std::stoull(total));
    const std::size_t collapsed_pos =
        pos + tag.size() + 1 + total.size() + 1 + proven.size() + 1;
    too_many_collapsed.replace(
        collapsed_pos, collapsed.size(),
        std::to_string(std::stoull(total) - std::stoull(proven) + 1));
    std::stringstream is(too_many_collapsed);
    expect_positioned_error(
        [&] { (void)CampaignPartial::load(is, "<collapsed>"); }, "<collapsed>",
        "exceeds total_injections");
  }
  {
    // A flip-flop count far beyond the rows that follow: the loader grows
    // per_ff as rows are read, so it fails at the next section instead of
    // sizing an allocation from the count.
    std::string oversized = text;
    const std::size_t pos = oversized.find("ffs ");
    ASSERT_NE(pos, std::string::npos);
    const std::size_t count_end = oversized.find('\n', pos);
    oversized.replace(pos + 4, count_end - pos - 4, "4294967296");
    std::stringstream is(oversized);
    expect_positioned_error(
        [&] { (void)CampaignPartial::load(is, "<ffs>"); }, "<ffs>",
        "malformed count");
  }
  {
    std::stringstream is("ffr-model 1 ridge");
    expect_positioned_error([&] { (void)CampaignPartial::load(is, "<magic>"); },
                            "<magic>", "bad magic");
  }
  {
    // Class counts no longer summing to the row's injections.
    std::string inconsistent = text;
    const std::size_t pos = inconsistent.find("ffs");
    ASSERT_NE(pos, std::string::npos);
    // Bump the first per-FF injection count (first number after the ff
    // index on the first row) without touching the class counts.
    std::istringstream rows(inconsistent.substr(pos));
    std::string tag, count, ff_index, injections;
    rows >> tag >> count >> ff_index >> injections;
    const std::size_t row_pos =
        inconsistent.find(ff_index + ' ' + injections, pos);
    ASSERT_NE(row_pos, std::string::npos);
    inconsistent.replace(row_pos + ff_index.size() + 1, injections.size(),
                         std::to_string(std::stoull(injections) + 1));
    std::stringstream is(inconsistent);
    expect_positioned_error(
        [&] { (void)CampaignPartial::load(is, "<sums>"); }, "<sums>",
        "class counts sum to");
  }
}

// ---- resume-from-partial ----------------------------------------------------

struct ResumeFixture : public MacShardFixture {
  void SetUp() override {
    dir = std::filesystem::temp_directory_path() / "ffr_shard_resume";
    std::filesystem::remove_all(dir);
  }
  void TearDown() override { std::filesystem::remove_all(dir); }
  std::filesystem::path dir;
};

TEST_F(ResumeFixture, ResumeRerunsExactlyTheMissingShard) {
  CampaignConfig config = base_config();
  config.shard.count = 3;

  ResumeReport first;
  const CampaignResult merged =
      run_sharded_campaign(*engine, config, dir, &first);
  EXPECT_EQ(first.executed, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(first.resumed.empty());
  CampaignConfig unsharded = config;
  unsharded.shard = ShardSpec{};
  expect_result_identical(merged, engine->run(unsharded));

  // Crash simulation: shard 1's partial never made it to disk.
  const CampaignPartial shard1 =
      CampaignPartial::load_file(dir / partial_filename(1, 3));
  ASSERT_TRUE(std::filesystem::remove(dir / partial_filename(1, 3)));

  ResumeReport second;
  const CampaignResult resumed =
      run_sharded_campaign(*engine, config, dir, &second);
  EXPECT_EQ(second.resumed, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(second.executed, (std::vector<std::size_t>{1}));
  // Exactly shard 1's work was redone — pinned via the deterministic
  // counters of the partial that was deleted.
  EXPECT_EQ(second.passes_executed, shard1.result.total_sim_passes);
  EXPECT_EQ(second.cycles_executed, shard1.result.cycles_simulated);
  expect_result_identical(resumed, merged);

  // A third run resumes everything and simulates nothing.
  ResumeReport third;
  const CampaignResult all_resumed =
      run_sharded_campaign(*engine, config, dir, &third);
  EXPECT_EQ(third.resumed, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(third.executed.empty());
  EXPECT_EQ(third.passes_executed, 0u);
  EXPECT_EQ(third.cycles_executed, 0u);
  expect_result_identical(all_resumed, merged);
}

TEST_F(ResumeFixture, ResumeRejectsWrongContentHash) {
  CampaignConfig config = base_config();
  config.shard = ShardSpec{0, 2};
  CampaignPartial partial = run_shard(*engine, config);
  partial.engine_hash = "feedfacefeedfacefeedfacefeedface";
  partial.save_file(dir / partial_filename(0, 2));
  try {
    (void)load_or_run_shard(*engine, config, dir);
    FAIL() << "expected a content-hash mismatch error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("does not match"), std::string::npos) << what;
    EXPECT_NE(what.find("feedface"), std::string::npos) << what;
  }
}

/// Expects resuming `config` on `other` over the partial in `dir` to throw a
/// std::runtime_error saying the partial does not match.
void expect_resume_mismatch(const CampaignEngine& other,
                            const CampaignConfig& config,
                            const std::filesystem::path& dir) {
  try {
    (void)load_or_run_shard(other, config, dir);
    FAIL() << "expected a partial mismatch error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("does not match"), std::string::npos) << what;
  }
}

TEST_F(ResumeFixture, ResumeRejectsPartialOfAnotherDesignOrSeed) {
  CampaignConfig config = base_config();
  config.shard = ShardSpec{0, 2};
  const CampaignPartial partial = run_shard(*engine, config);
  partial.save_file(dir / partial_filename(0, 2));

  {
    // (a) Same netlist, one stimulus bit flipped.
    sim::Testbench flipped = bench->tb;
    const std::size_t cycle = flipped.inject_begin;
    flipped.stimulus.set(0, cycle, !flipped.stimulus.get(0, cycle));
    const CampaignEngine other(mac->netlist, flipped);
    SCOPED_TRACE("stimulus bit flipped");
    expect_resume_mismatch(other, config, dir);
  }
  {
    // (b) One combinational cell's function changed; every FF name, net id
    // and the testbench binding are kept.
    netlist::Netlist changed = mac->netlist;
    netlist::CellId target = changed.num_cells();
    for (netlist::CellId id = 0; id < changed.num_cells(); ++id) {
      if (changed.cell(id).func == netlist::CellFunc::kAnd2) {
        target = id;
        break;
      }
    }
    ASSERT_LT(target, changed.num_cells());
    changed.mutable_cell(target).func = netlist::CellFunc::kOr2;
    changed.finalize();
    ASSERT_EQ(changed.num_flip_flops(), mac->netlist.num_flip_flops());
    for (std::size_t i = 0; i < changed.num_flip_flops(); ++i) {
      ASSERT_EQ(changed.cell(changed.flip_flops()[i]).name,
                mac->netlist.cell(mac->netlist.flip_flops()[i]).name);
    }
    const CampaignEngine other(changed, bench->tb);
    SCOPED_TRACE("combinational cell function changed");
    expect_resume_mismatch(other, config, dir);
  }
  {
    // (c) The same engine with the next seed.
    CampaignConfig reseeded = config;
    reseeded.seed = config.seed + 1;
    SCOPED_TRACE("seed + 1");
    expect_resume_mismatch(*engine, reseeded, dir);
  }
}

TEST_F(MacShardFixture, EngineContentHashIsTheServiceKey) {
  EXPECT_EQ(engine->content_hash(),
            service::content_hash(mac->netlist, bench->tb));

  // A registry engine on a write -> read -> retarget import carries the
  // same key: the import is the same content.
  const netlist::Netlist imported =
      netlist::read_verilog(netlist::to_verilog(mac->netlist), "mac_copy.v");
  const sim::Testbench retargeted =
      sim::retarget_testbench(bench->tb, mac->netlist, imported);
  service::EngineRegistry registry;
  const std::shared_ptr<const CampaignEngine> acquired =
      registry.acquire(imported, retargeted);
  EXPECT_EQ(acquired->content_hash(),
            service::content_hash(imported, retargeted));
  EXPECT_EQ(acquired->content_hash(), engine->content_hash());
}

TEST_F(ResumeFixture, ResumeRejectsForeignCampaignConfig) {
  CampaignConfig config = base_config();
  config.shard = ShardSpec{0, 2};
  const CampaignPartial partial = run_shard(*engine, config);
  partial.save_file(dir / partial_filename(0, 2));

  CampaignConfig other = config;
  other.injections_per_ff += 8;
  EXPECT_THROW((void)load_or_run_shard(*engine, other, dir),
               std::runtime_error);
}

TEST_F(ResumeFixture, ResumeRejectsPresentButCorruptPartial) {
  CampaignConfig config = base_config();
  config.shard = ShardSpec{0, 2};
  const auto path = dir / partial_filename(0, 2);
  std::filesystem::create_directories(dir);
  {
    std::ofstream os(path);
    os << "ffr-partial " << kPartialFormatVersion
       << " campaign_shard\nengine abc\nshard 0 2\nconfig 24";
  }
  // Present-but-invalid partials must never be silently re-run: resuming
  // over them could merge science from a half-written file.
  expect_positioned_error(
      [&] { (void)load_or_run_shard(*engine, config, dir); },
      path.string(), "end of stream");
}

// ---- second circuit: the pipeline datapath ----------------------------------

TEST(PipelineShard, EveryPermutationMergesBitIdentical) {
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core);
  const CampaignEngine engine(core.netlist, bench.tb);

  CampaignConfig config;
  config.injections_per_ff = 20;
  config.num_threads = 2;
  const CampaignResult unsharded = engine.run(config);
  const CampaignResult flat =
      run_campaign(core.netlist, bench.tb, engine.golden(), config);

  for (const std::size_t count :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7}}) {
    const std::vector<CampaignPartial> partials =
        run_all_shards(engine, config, count);
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    do {
      std::vector<CampaignPartial> shuffled;
      shuffled.reserve(count);
      for (const std::size_t k : order) shuffled.push_back(partials[k]);
      const CampaignResult merged = merge_partials(shuffled);
      expect_result_identical(merged, unsharded);
      expect_science_identical(merged, flat);
      if (::testing::Test::HasFailure()) {
        FAIL() << "first failing permutation of N=" << count;
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

}  // namespace
}  // namespace ffr::fault
