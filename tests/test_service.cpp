// Suite for the service layer (service/content_hash, service/engine_registry,
// service/job_queue, service/metrics):
//  - content hashes are invariant under structurally identical copies (a
//    write -> read -> retarget round trip hits the same cache slot),
//    distinguish different designs and testbenches, and stay pinned to
//    recorded literals (saved partial files carry them);
//  - the registry serves one golden run to repeated and concurrent acquires
//    (hit/miss/build counters), enforces its byte budget LRU-first with the
//    newest entry pinned, and recomputes evicted entries bit-identically;
//  - entries on one design share one netlist copy (also across a Verilog
//    re-import driven by another testbench), predictions are memoized per
//    entry and per model, and eviction drops both;
//  - the netlist key is memoized on the finalized Netlist: copies share it,
//    mutation + finalize re-keys only the mutated copy, and concurrent
//    first keys on one netlist agree with the pinned literal;
//  - one-shot entries cycle through the probation slice without evicting
//    promoted ones, and every eviction record names its cause;
//  - campaign jobs through FfrService are bit-identical to direct
//    CampaignEngine::run, predict jobs serve a persisted TransferModel
//    (the feature-matrix class without ever constructing a simulator), and
//    job lifecycle (states, cancellation, failure capture, wait/poll) holds;
//  - sharded campaign jobs (N shard jobs + a merge job) reproduce the direct
//    engine run bit-identically, resume from partial files on disk (metrics
//    shards_completed / shards_resumed), and surface invalid partials as
//    job failures naming the shard;
//  - multi-threaded mixed submit/evict/predict stresses — including
//    concurrent sharded campaigns — keep every result bit-identical to
//    single-threaded references; this suite is the service layer's TSan
//    exercise (CI runs it under -fsanitize=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "circuits/pipeline_core.hpp"
#include "core/transfer_flow.hpp"
#include "fault/campaign.hpp"
#include "fault/engine.hpp"
#include "fault/shard.hpp"
#include "features/extractor.hpp"
#include "netlist/verilog_reader.hpp"
#include "netlist/verilog_writer.hpp"
#include "service/content_hash.hpp"
#include "service/engine_registry.hpp"
#include "service/job_queue.hpp"
#include "service/metrics.hpp"
#include "sim/testbench.hpp"

namespace ffr::service {
namespace {

fault::CampaignConfig small_campaign() {
  fault::CampaignConfig config;
  config.injections_per_ff = 8;
  config.num_threads = 2;
  return config;
}

void expect_campaigns_bit_identical(const fault::CampaignResult& a,
                                    const fault::CampaignResult& b) {
  ASSERT_EQ(a.per_ff.size(), b.per_ff.size());
  for (std::size_t i = 0; i < a.per_ff.size(); ++i) {
    EXPECT_EQ(a.per_ff[i].name, b.per_ff[i].name);
    EXPECT_EQ(a.per_ff[i].classes.counts, b.per_ff[i].classes.counts)
        << "ff " << a.per_ff[i].name;
  }
  EXPECT_EQ(a.fdr_vector(), b.fdr_vector());
  EXPECT_EQ(a.total_injections, b.total_injections);
}

/// Shared fixtures: both in-tree circuits, their testbenches, and a small
/// persisted transfer model (trained once per process — campaigns are the
/// expensive part of this suite).
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mac_ = new circuits::MacCore(circuits::build_mac_core());
    mac_bench_ = new circuits::MacTestbench(circuits::build_mac_testbench(*mac_));
    pipe_ = new circuits::PipelineCore(circuits::build_pipeline_core());
    pipe_bench_ = new circuits::PipelineTestbench(
        circuits::build_pipeline_testbench(*pipe_));

    core::TransferConfig config;
    config.model = "linear";
    config.injections_per_ff = 8;
    config.num_threads = 2;
    const std::vector<core::TransferCircuit> circuits = {
        {&mac_->netlist, &mac_bench_->tb}};
    model_path_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() / "ffr_test_service_model.txt");
    core::train_transfer_model(circuits, config).save(*model_path_);
  }

  static void TearDownTestSuite() {
    std::filesystem::remove(*model_path_);
    delete model_path_;
    delete pipe_bench_;
    delete pipe_;
    delete mac_bench_;
    delete mac_;
  }

  static circuits::MacCore* mac_;
  static circuits::MacTestbench* mac_bench_;
  static circuits::PipelineCore* pipe_;
  static circuits::PipelineTestbench* pipe_bench_;
  static std::filesystem::path* model_path_;
};

circuits::MacCore* ServiceTest::mac_ = nullptr;
circuits::MacTestbench* ServiceTest::mac_bench_ = nullptr;
circuits::PipelineCore* ServiceTest::pipe_ = nullptr;
circuits::PipelineTestbench* ServiceTest::pipe_bench_ = nullptr;
std::filesystem::path* ServiceTest::model_path_ = nullptr;

// ---------------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, ContentHashIsDeterministicAndDiscriminates) {
  const ContentHash mac_hash = content_hash(mac_->netlist, mac_bench_->tb);
  EXPECT_EQ(mac_hash, content_hash(mac_->netlist, mac_bench_->tb));
  EXPECT_FALSE(mac_hash == content_hash(pipe_->netlist, pipe_bench_->tb));

  // A testbench tweak (shorter injection window) must change the key.
  sim::Testbench tweaked = mac_bench_->tb;
  tweaked.inject_end = tweaked.inject_end - 1;
  EXPECT_FALSE(mac_hash == content_hash(mac_->netlist, tweaked));

  EXPECT_EQ(mac_hash.hex().size(), 32u);
}

TEST_F(ServiceTest, ContentHashLiteralsArePinned) {
  // Recorded before the hash was split into a netlist key and a full key:
  // the split must leave every cache key, and with it every partial file
  // on disk, valid.
  EXPECT_EQ(content_hash(mac_->netlist, mac_bench_->tb).hex(),
            "2a57dd49d34f680dd88dd8b467aec5cc");
  EXPECT_EQ(content_hash(pipe_->netlist, pipe_bench_->tb).hex(),
            "ed3941e626cc73951ed8f0016663ac60");

  const ContentKeys keys = content_keys(mac_->netlist, mac_bench_->tb);
  EXPECT_EQ(keys.full, content_hash(mac_->netlist, mac_bench_->tb));
  sim::Testbench tweaked = mac_bench_->tb;
  tweaked.inject_end = tweaked.inject_end - 1;
  const ContentKeys tweaked_keys = content_keys(mac_->netlist, tweaked);
  EXPECT_EQ(tweaked_keys.netlist, keys.netlist);
  EXPECT_FALSE(tweaked_keys.full == keys.full);
  EXPECT_FALSE(content_keys(pipe_->netlist, pipe_bench_->tb).netlist ==
               keys.netlist);
}

TEST_F(ServiceTest, ContentHashSurvivesWriteReadRetarget) {
  // An imported structural copy with a retargeted testbench is the same
  // content: the canonical testbench dump uses net names, not ids.
  const netlist::Netlist imported =
      netlist::read_verilog(netlist::to_verilog(mac_->netlist), "mac_copy.v");
  const sim::Testbench retargeted =
      sim::retarget_testbench(mac_bench_->tb, mac_->netlist, imported);
  EXPECT_EQ(content_hash(mac_->netlist, mac_bench_->tb),
            content_hash(imported, retargeted));
  // The import's own memoized netlist key equals the original's.
  EXPECT_EQ(imported.content_key(), mac_->netlist.content_key());
}

/// A combinational, non-constant cell of `nl` at drive X1 (one to resize).
netlist::CellId resizable_cell(const netlist::Netlist& nl) {
  for (netlist::CellId id = 0; id < nl.num_cells(); ++id) {
    const netlist::Cell& cell = nl.cell(id);
    if (!netlist::is_sequential(cell.func) && !netlist::is_constant(cell.func) &&
        cell.drive == netlist::DriveStrength::kX1) {
      return id;
    }
  }
  throw std::logic_error("no resizable cell");
}

TEST_F(ServiceTest, NetlistKeyMemoFollowsMutationAndFinalize) {
  const netlist::ContentHash original = pipe_->netlist.content_key();
  EXPECT_EQ(original, netlist::render_content_key(pipe_->netlist));
  EXPECT_EQ(original, content_keys(pipe_->netlist, pipe_bench_->tb).netlist);

  // A copy shares the memo: its content is equal at copy time.
  netlist::Netlist copy = pipe_->netlist;
  EXPECT_EQ(copy.content_key(), original);

  // Resizing a cell unfinalizes the copy and drops its memo...
  const netlist::CellId id = resizable_cell(copy);
  copy.mutable_cell(id).drive = netlist::DriveStrength::kX4;
  EXPECT_FALSE(copy.finalized());
  EXPECT_THROW((void)copy.content_key(), std::invalid_argument);
  EXPECT_THROW((void)content_hash(copy, pipe_bench_->tb), std::invalid_argument);
  copy.finalize();
  // ...so the re-finalized copy keys its new content, equal to a fresh
  // netlist built by the same calls, and the memo serves it again.
  const netlist::ContentHash resized = copy.content_key();
  EXPECT_FALSE(resized == original);
  EXPECT_EQ(copy.content_key(), resized);
  circuits::PipelineCore fresh = circuits::build_pipeline_core();
  fresh.netlist.mutable_cell(id).drive = netlist::DriveStrength::kX4;
  fresh.netlist.finalize();
  EXPECT_EQ(fresh.netlist.content_key(), resized);
  EXPECT_EQ(netlist::render_content_key(copy), resized);

  // The original's memo is its own: the copy's mutation left it alone.
  EXPECT_EQ(pipe_->netlist.content_key(), original);
  EXPECT_EQ(content_hash(pipe_->netlist, pipe_bench_->tb).hex(),
            "ed3941e626cc73951ed8f0016663ac60");

  // A moved-to netlist keeps serving the key; the moved-from one (emptied)
  // renders what it now holds — or throws on its empty module name —
  // instead of serving the memo it gave away.
  netlist::Netlist moved = std::move(copy);
  EXPECT_EQ(moved.content_key(), resized);
  bool moved_from_serves_memo = false;
  try {
    moved_from_serves_memo = copy.content_key() == resized;  // NOLINT(bugprone-use-after-move)
  } catch (const std::invalid_argument&) {
  }
  EXPECT_FALSE(moved_from_serves_memo);
}

TEST_F(ServiceTest, StressConcurrentFirstKeysOnOneNetlistAgree) {
  // A fresh netlist whose key nobody has taken yet: 8 threads take its
  // first content_hash while service workers predict on it. The memo must
  // render once and every caller must see the pinned literal.
  const circuits::PipelineCore fresh = circuits::build_pipeline_core();
  const circuits::PipelineTestbench fresh_bench =
      circuits::build_pipeline_testbench(fresh);
  const linalg::Vector reference = core::TransferModel::load(*model_path_)
                                       .predict(pipe_->netlist, pipe_bench_->tb);

  ServiceConfig config;
  config.num_workers = 4;
  FfrService service(config);
  constexpr std::size_t kThreads = 8;
  std::vector<std::string> hashes(kThreads);
  std::vector<JobId> ids;
  std::atomic<std::size_t> ready{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads + 1) std::this_thread::yield();
        hashes[t] = content_hash(fresh.netlist, fresh_bench.tb).hex();
      });
    }
    ready.fetch_add(1);
    while (ready.load() < kThreads + 1) std::this_thread::yield();
    for (std::size_t i = 0; i < 8; ++i) {
      ids.push_back(
          service.submit_predict(*model_path_, fresh.netlist, fresh_bench.tb));
    }
    for (std::thread& thread : threads) thread.join();
  }
  service.wait_all();
  for (const std::string& hash : hashes) {
    EXPECT_EQ(hash, "ed3941e626cc73951ed8f0016663ac60");
  }
  for (const JobId id : ids) {
    ASSERT_EQ(service.status(id).state, JobState::kDone)
        << service.status(id).error;
    EXPECT_EQ(service.prediction(id), reference);
  }
  EXPECT_EQ(service.metrics().snapshot().engine_builds, 1u);
}

// ---------------------------------------------------------------------------
// Engine registry
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, RegistryServesRepeatAcquiresFromCache) {
  ServiceMetrics metrics;
  EngineRegistry registry({}, &metrics);

  const auto first = registry.acquire(mac_->netlist, mac_bench_->tb);
  const auto second = registry.acquire(mac_->netlist, mac_bench_->tb);
  EXPECT_EQ(first.get(), second.get());  // literally the same engine

  // The imported copy hits the same slot.
  const netlist::Netlist imported =
      netlist::read_verilog(netlist::to_verilog(mac_->netlist), "mac_copy.v");
  const sim::Testbench retargeted =
      sim::retarget_testbench(mac_bench_->tb, mac_->netlist, imported);
  const auto third = registry.acquire(imported, retargeted);
  EXPECT_EQ(first.get(), third.get());

  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.cache_misses, 1u);
  EXPECT_EQ(snap.cache_hits, 2u);
  EXPECT_EQ(snap.engine_builds, 1u);
  EXPECT_EQ(snap.resident_engines, 1u);
  EXPECT_EQ(snap.resident_netlists, 1u);
  EXPECT_EQ(registry.size(), 1u);
  // Charged for the engine plus the entry's testbench copy, whose
  // waveforms take at least a byte per (input, cycle).
  const sim::Stimulus& stimulus = mac_bench_->tb.stimulus;
  EXPECT_GE(registry.resident_bytes(),
            first->resident_bytes() +
                stimulus.num_inputs() * stimulus.num_cycles());
}

TEST_F(ServiceTest, RegistryCachedEngineOutlivesCallersObjects) {
  // The registry owns copies: an engine acquired with short-lived objects
  // stays valid (and campaign results stay bit-identical to an engine built
  // on the originals).
  EngineRegistry registry;
  std::shared_ptr<const fault::CampaignEngine> engine;
  {
    const netlist::Netlist copy =
        netlist::read_verilog(netlist::to_verilog(mac_->netlist), "m.v");
    const sim::Testbench tb =
        sim::retarget_testbench(mac_bench_->tb, mac_->netlist, copy);
    engine = registry.acquire(copy, tb);
  }  // caller's netlist/testbench die here
  const fault::CampaignEngine direct(mac_->netlist, mac_bench_->tb);
  expect_campaigns_bit_identical(direct.run(small_campaign()),
                                 engine->run(small_campaign()));
}

TEST_F(ServiceTest, ConcurrentAcquiresCoalesceOntoOneBuild) {
  ServiceMetrics metrics;
  EngineRegistry registry({}, &metrics);
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const fault::CampaignEngine>> engines(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        engines[t] = registry.acquire(mac_->netlist, mac_bench_->tb);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(engines[0].get(), engines[t].get());
  }
  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.engine_builds, 1u);
  EXPECT_EQ(snap.cache_misses, 1u);
  EXPECT_EQ(snap.cache_hits, kThreads - 1);
}

TEST_F(ServiceTest, BudgetEvictionDropsLruKeepsNewestAndRecomputesIdentically) {
  ServiceMetrics metrics;
  RegistryConfig config;
  config.max_resident_bytes = 1;  // every second entry forces an eviction
  EngineRegistry registry(config, &metrics);

  const auto mac_engine = registry.acquire(mac_->netlist, mac_bench_->tb);
  const fault::CampaignResult before = mac_engine->run(small_campaign());
  // Pinned: the newest (only) entry stays resident despite the 1-byte budget.
  EXPECT_EQ(registry.size(), 1u);

  const auto pipe_engine = registry.acquire(pipe_->netlist, pipe_bench_->tb);
  EXPECT_EQ(registry.size(), 1u);  // mac evicted, pipeline pinned
  ASSERT_EQ(registry.eviction_log().size(), 1u);
  EXPECT_EQ(registry.eviction_log()[0].circuit, "mac_core");
  EXPECT_GT(registry.eviction_log()[0].bytes, 0u);
  EXPECT_EQ(metrics.snapshot().cache_evictions, 1u);

  // The held shared_ptr keeps the evicted engine usable...
  expect_campaigns_bit_identical(before, mac_engine->run(small_campaign()));
  // ...and re-acquiring rebuilds it with bit-identical campaign results.
  const auto rebuilt = registry.acquire(mac_->netlist, mac_bench_->tb);
  EXPECT_NE(rebuilt.get(), mac_engine.get());
  EXPECT_EQ(metrics.snapshot().engine_builds, 3u);
  expect_campaigns_bit_identical(before, rebuilt->run(small_campaign()));
}

TEST_F(ServiceTest, ExplicitEvictAndClear) {
  ServiceMetrics metrics;
  EngineRegistry registry({}, &metrics);
  (void)registry.acquire(mac_->netlist, mac_bench_->tb);
  (void)registry.acquire(pipe_->netlist, pipe_bench_->tb);
  EXPECT_EQ(registry.size(), 2u);

  EXPECT_TRUE(registry.evict(content_hash(mac_->netlist, mac_bench_->tb)));
  EXPECT_FALSE(registry.evict(content_hash(mac_->netlist, mac_bench_->tb)));
  EXPECT_EQ(registry.size(), 1u);
  registry.clear();
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.resident_bytes(), 0u);
  EXPECT_EQ(metrics.snapshot().cache_evictions, 2u);
  EXPECT_EQ(metrics.snapshot().resident_engines, 0u);
}

TEST_F(ServiceTest, EvictionRecordsNameTheirCause) {
  ServiceMetrics metrics;
  RegistryConfig config;
  config.max_resident_bytes = 1;
  EngineRegistry registry(config, &metrics);
  // Acquired twice, mac is promoted out of the probation slice; the
  // pipeline acquire then overflows the whole budget with mac as its LRU.
  (void)registry.acquire(mac_->netlist, mac_bench_->tb);
  (void)registry.acquire(mac_->netlist, mac_bench_->tb);
  EXPECT_EQ(metrics.snapshot().probation_bytes, 0u);
  (void)registry.acquire(pipe_->netlist, pipe_bench_->tb);
  // A second one-shot entry pushes the first out of the (0-byte) slice.
  sim::Testbench late = pipe_bench_->tb;
  late.inject_begin = late.inject_begin + 1;
  (void)registry.acquire(pipe_->netlist, late);
  registry.clear();

  const std::vector<EvictionRecord> log = registry.eviction_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].circuit, "mac_core");
  EXPECT_EQ(log[0].reason, EvictionReason::kBudget);
  EXPECT_EQ(log[0].acquisitions, 2u);
  EXPECT_EQ(log[1].key, content_hash(pipe_->netlist, pipe_bench_->tb));
  EXPECT_EQ(log[1].reason, EvictionReason::kProbation);
  EXPECT_EQ(log[2].key, content_hash(pipe_->netlist, late));
  EXPECT_EQ(log[2].reason, EvictionReason::kExplicit);
  EXPECT_STREQ(to_string(log[1].reason), "probation");

  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.cache_evictions, 3u);
  EXPECT_EQ(snap.evictions_budget, 1u);
  EXPECT_EQ(snap.evictions_probation, 1u);
  EXPECT_EQ(snap.evictions_explicit, 1u);
  const std::string text = metrics.to_text();
  for (const char* key : {"ffr_service_cache_evictions_probation 1",
                          "ffr_service_cache_evictions_budget 1",
                          "ffr_service_cache_evictions_explicit 1",
                          "ffr_service_probation_bytes 0"}) {
    EXPECT_NE(text.find(key), std::string::npos)
        << "missing '" << key << "' in:\n" << text;
  }
}

TEST_F(ServiceTest, EvictionLogKeepsTheNewestRecordsOldestFirst) {
  ServiceMetrics metrics;
  RegistryConfig config;
  config.max_resident_bytes = 1;  // every acquire evicts the previous entry
  EngineRegistry registry(config, &metrics);
  constexpr std::size_t kExtra = 3;
  constexpr std::size_t kEvictions = kEvictionLogCapacity + kExtra;
  std::vector<ContentHash> keys;
  for (std::size_t i = 0; i <= kEvictions; ++i) {
    const circuits::PipelineTestbench bench =
        circuits::build_pipeline_testbench(*pipe_, 96, 0.7, 1 + i);
    keys.push_back(content_hash(pipe_->netlist, bench.tb));
    (void)registry.acquire(pipe_->netlist, bench.tb);
  }
  // The per-reason counters still see every eviction; the log keeps the
  // newest kEvictionLogCapacity of them, oldest first.
  EXPECT_EQ(metrics.snapshot().cache_evictions, kEvictions);
  const std::vector<EvictionRecord> log = registry.eviction_log();
  ASSERT_EQ(log.size(), kEvictionLogCapacity);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].key, keys[kExtra + i]) << "record " << i;
  }
  EXPECT_EQ(log.back().key, keys[kEvictions - 1]);
}

TEST_F(ServiceTest, OneShotStreamCyclesThroughProbationSlice) {
  // 200 never-seen pipeline testbenches, each acquired once, interleaved
  // with predicts on mac: the one-shot entries stay inside the probation
  // slice and never push the warm mac entry out.
  const auto model = std::make_shared<const core::TransferModel>(
      core::TransferModel::load(*model_path_));
  ServiceMetrics metrics;
  EngineRegistry registry({}, &metrics);
  const std::size_t slice = registry.probation_slice_bytes();
  EXPECT_EQ(slice, RegistryConfig{}.max_resident_bytes / kProbationSliceDivisor);
  const auto mac_fdr = registry.predict(mac_->netlist, mac_bench_->tb, model);

  constexpr std::size_t kCold = 200;
  for (std::size_t i = 0; i < kCold; ++i) {
    const circuits::PipelineTestbench cold =
        circuits::build_pipeline_testbench(*pipe_, 96, 0.7, 1 + i);
    (void)registry.predict(pipe_->netlist, cold.tb, model);
    // The pinned newest entry may sit on top of the slice; here every
    // one-shot entry is far smaller than the slice, so the slice holds.
    EXPECT_LE(metrics.snapshot().probation_bytes, slice) << "after cold " << i;
    EXPECT_EQ(registry.predict(mac_->netlist, mac_bench_->tb, model).get(),
              mac_fdr.get());
  }
  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.engine_builds, 1 + kCold);  // mac was never rebuilt
  EXPECT_GT(snap.evictions_probation, 0u);
  EXPECT_EQ(snap.evictions_budget, 0u);
  for (const EvictionRecord& record : registry.eviction_log()) {
    EXPECT_EQ(record.circuit, "pipeline_core");
    EXPECT_EQ(record.reason, EvictionReason::kProbation);
    EXPECT_EQ(record.acquisitions, 1u);
  }
}

TEST_F(ServiceTest, SecondAcquirePromotesOutOfProbation) {
  ServiceMetrics metrics;
  EngineRegistry registry({}, &metrics);
  const auto a = registry.acquire(mac_->netlist, mac_bench_->tb);
  const std::size_t a_bytes = registry.resident_bytes();
  EXPECT_EQ(metrics.snapshot().probation_bytes, a_bytes);  // A: acquired once
  (void)registry.acquire(pipe_->netlist, pipe_bench_->tb);
  EXPECT_EQ(metrics.snapshot().probation_bytes, registry.resident_bytes());
  const auto a_again = registry.acquire(mac_->netlist, mac_bench_->tb);
  EXPECT_EQ(a_again.get(), a.get());  // A, B, A: no rebuild
  EXPECT_EQ(metrics.snapshot().engine_builds, 2u);
  EXPECT_EQ(metrics.snapshot().probation_bytes,
            registry.resident_bytes() - a_bytes);

  // One-shot entries overflow the slice: B, still probationary and least
  // recently used, goes first; promoted A stays.
  std::size_t cold = 0;
  while (metrics.snapshot().evictions_probation == 0) {
    ASSERT_LT(cold, 100u) << "the probation slice never overflowed";
    const circuits::PipelineTestbench one_shot =
        circuits::build_pipeline_testbench(*pipe_, 96, 0.7, 1 + cold++);
    (void)registry.acquire(pipe_->netlist, one_shot.tb);
  }
  ASSERT_FALSE(registry.eviction_log().empty());
  EXPECT_EQ(registry.eviction_log()[0].key,
            content_hash(pipe_->netlist, pipe_bench_->tb));
  EXPECT_EQ(registry.acquire(mac_->netlist, mac_bench_->tb).get(), a.get());
  EXPECT_EQ(metrics.snapshot().engine_builds, 2u + cold);
}

TEST_F(ServiceTest, TestbenchesOnOneNetlistShareOneNetlistCopy) {
  ServiceMetrics metrics;
  EngineRegistry registry({}, &metrics);
  sim::Testbench late = mac_bench_->tb;
  late.inject_begin = late.inject_begin + 1;

  const auto first = registry.acquire(mac_->netlist, mac_bench_->tb);
  const auto second = registry.acquire(mac_->netlist, late);
  EXPECT_NE(first.get(), second.get());  // two entries...
  EXPECT_EQ(&first->netlist(), &second->netlist());  // ...one netlist copy
  EXPECT_NE(&first->netlist(), &mac_->netlist);      // owned, not borrowed
  EXPECT_NE(&first->testbench(), &second->testbench());
  EXPECT_EQ(metrics.snapshot().resident_engines, 2u);
  EXPECT_EQ(metrics.snapshot().resident_netlists, 1u);

  (void)registry.acquire(pipe_->netlist, pipe_bench_->tb);
  EXPECT_EQ(metrics.snapshot().resident_netlists, 2u);
}

TEST_F(ServiceTest, ReimportWithOtherTestbenchMatchesDirectRunAndPredict) {
  // The entry for a re-imported netlist (different NetIds) driven by a
  // different workload shares the netlist copy of the original design; its
  // testbench is re-bound by name onto that copy, so campaigns and
  // predictions match direct library calls on the caller's objects.
  EngineRegistry registry;
  const auto original = registry.acquire(mac_->netlist, mac_bench_->tb);

  circuits::MacTestbenchConfig other_config;
  other_config.num_frames = 6;
  other_config.seed = 0x5EED;
  const circuits::MacTestbench other =
      circuits::build_mac_testbench(*mac_, other_config);
  const netlist::Netlist imported =
      netlist::read_verilog(netlist::to_verilog(mac_->netlist), "mac_copy.v");
  const sim::Testbench rebound =
      sim::retarget_testbench(other.tb, mac_->netlist, imported);

  const auto engine = registry.acquire(imported, rebound);
  EXPECT_NE(engine.get(), original.get());
  EXPECT_EQ(&engine->netlist(), &original->netlist());

  const fault::CampaignEngine direct(imported, rebound);
  const fault::CampaignResult reference = direct.run(small_campaign());
  const fault::CampaignResult cached = engine->run(small_campaign());
  expect_campaigns_bit_identical(reference, cached);
  EXPECT_EQ(cached.total_sim_passes, reference.total_sim_passes);
  EXPECT_EQ(cached.cycles_simulated, reference.cycles_simulated);
  EXPECT_EQ(cached.ops_evaluated, reference.ops_evaluated);

  const auto model = std::make_shared<const core::TransferModel>(
      core::TransferModel::load(*model_path_));
  const std::shared_ptr<const linalg::Vector> predicted =
      registry.predict(imported, rebound, model);
  EXPECT_EQ(*predicted, model->predict(imported, rebound));
}

TEST_F(ServiceTest, EachModelGetsItsOwnMemoOnAnEntry) {
  ServiceMetrics metrics;
  EngineRegistry registry({}, &metrics);
  // Two loads of one file are two models: the memo keys on the object.
  const auto model_a = std::make_shared<const core::TransferModel>(
      core::TransferModel::load(*model_path_));
  const auto model_b = std::make_shared<const core::TransferModel>(
      core::TransferModel::load(*model_path_));
  const linalg::Vector reference =
      model_a->predict(pipe_->netlist, pipe_bench_->tb);

  const auto a1 = registry.predict(pipe_->netlist, pipe_bench_->tb, model_a);
  const std::size_t bytes_one_memo = registry.resident_bytes();
  const auto a2 = registry.predict(pipe_->netlist, pipe_bench_->tb, model_a);
  const auto b1 = registry.predict(pipe_->netlist, pipe_bench_->tb, model_b);
  const auto b2 = registry.predict(pipe_->netlist, pipe_bench_->tb, model_b);
  EXPECT_EQ(a1.get(), a2.get());  // served from the memo, not copied
  EXPECT_EQ(b1.get(), b2.get());
  EXPECT_NE(a1.get(), b1.get());
  EXPECT_EQ(*a1, reference);
  EXPECT_EQ(*b1, reference);
  // The second memo is charged to the entry too.
  EXPECT_GE(registry.resident_bytes(),
            bytes_one_memo + reference.size() * sizeof(double));

  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.predictions_computed, 2u);
  EXPECT_EQ(snap.predictions_reused, 2u);
  EXPECT_EQ(snap.cache_hits + snap.cache_misses, 4u);  // one acquire each
  EXPECT_EQ(snap.engine_builds, 1u);
  const std::string text = metrics.to_text();
  for (const char* key :
       {"ffr_service_predictions_computed 2", "ffr_service_predictions_reused 2",
        "ffr_service_resident_netlists 1"}) {
    EXPECT_NE(text.find(key), std::string::npos)
        << "missing '" << key << "' in:\n" << text;
  }
}

TEST_F(ServiceTest, EvictionDropsMemoAndLastNetlistReference) {
  ServiceMetrics metrics;
  EngineRegistry registry({}, &metrics);
  const auto model = std::make_shared<const core::TransferModel>(
      core::TransferModel::load(*model_path_));
  std::weak_ptr<const fault::CampaignEngine> engine;
  std::weak_ptr<const linalg::Vector> memo;
  linalg::Vector first;
  {
    engine = registry.acquire(pipe_->netlist, pipe_bench_->tb);
    const auto fdr = registry.predict(pipe_->netlist, pipe_bench_->tb, model);
    memo = fdr;
    first = *fdr;
  }
  EXPECT_FALSE(engine.expired());  // the registry holds the entry
  EXPECT_FALSE(memo.expired());
  EXPECT_EQ(metrics.snapshot().resident_netlists, 1u);

  ASSERT_TRUE(registry.evict(content_hash(pipe_->netlist, pipe_bench_->tb)));
  EXPECT_TRUE(engine.expired());
  EXPECT_TRUE(memo.expired());
  EXPECT_EQ(metrics.snapshot().resident_netlists, 0u);
  EXPECT_EQ(metrics.snapshot().resident_bytes, 0u);

  // Re-acquired, the entry recomputes its prediction bit-identically.
  EXPECT_EQ(*registry.predict(pipe_->netlist, pipe_bench_->tb, model), first);
  EXPECT_EQ(metrics.snapshot().predictions_computed, 2u);
  EXPECT_EQ(metrics.snapshot().predictions_reused, 0u);
  EXPECT_EQ(metrics.snapshot().engine_builds, 2u);
}

// ---------------------------------------------------------------------------
// Job queue
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, CampaignJobMatchesDirectEngineRun) {
  const fault::CampaignEngine direct(mac_->netlist, mac_bench_->tb);
  const fault::CampaignResult reference = direct.run(small_campaign());

  FfrService service;
  const JobId id =
      service.submit_campaign(mac_->netlist, mac_bench_->tb, small_campaign());
  const JobStatus status = service.wait(id);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.job_class, JobClass::kCampaign);
  EXPECT_GE(status.run_seconds, 0.0);
  expect_campaigns_bit_identical(reference, service.campaign_result(id));

  // Sharded variant: an ff_subset config rides through unchanged.
  fault::CampaignConfig shard = small_campaign();
  shard.ff_subset = {0, 2};
  const JobId shard_id =
      service.submit_campaign(mac_->netlist, mac_bench_->tb, shard);
  EXPECT_EQ(service.wait(shard_id).state, JobState::kDone);
  expect_campaigns_bit_identical(direct.run(shard),
                                 service.campaign_result(shard_id));
  EXPECT_EQ(service.metrics().snapshot().engine_builds, 1u);  // shared engine
}

TEST_F(ServiceTest, PredictJobServesPersistedModelWithoutInjection) {
  FfrService service;
  const JobId id =
      service.submit_predict(*model_path_, pipe_->netlist, pipe_bench_->tb);
  ASSERT_EQ(service.wait(id).state, JobState::kDone)
      << service.status(id).error;
  const linalg::Vector predicted = service.prediction(id);
  ASSERT_EQ(predicted.size(), pipe_->netlist.flip_flops().size());

  // Reference: the persisted model applied to golden-run features directly.
  const core::TransferModel loaded = core::TransferModel::load(*model_path_);
  const linalg::Vector reference =
      loaded.predict(pipe_->netlist, pipe_bench_->tb);
  ASSERT_EQ(reference.size(), predicted.size());
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    EXPECT_EQ(predicted[i], reference[i]) << "row " << i;
  }

  // A second predict on the same design reuses the cached golden run.
  const JobId again =
      service.submit_predict(*model_path_, pipe_->netlist, pipe_bench_->tb);
  EXPECT_EQ(service.wait(again).state, JobState::kDone);
  EXPECT_EQ(service.prediction(again), reference);
  const MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.engine_builds, 1u);
  EXPECT_EQ(snap.cache_hits, 1u);
  EXPECT_EQ(snap.predict_jobs, 2u);
  EXPECT_EQ(snap.predictions_computed, 1u);  // the second hit the memo
  EXPECT_EQ(snap.predictions_reused, 1u);
}

TEST_F(ServiceTest, FeatureMatrixPredictJobNeverBuildsAnEngine) {
  // Pure model serving: features in, FDR out — no simulator anywhere.
  const sim::GoldenResult golden =
      sim::run_golden(pipe_->netlist, pipe_bench_->tb);
  const features::FeatureMatrix features =
      features::extract_features(pipe_->netlist, golden.activity);

  FfrService service;
  std::vector<JobId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(service.submit_predict(*model_path_, features));
  }
  service.wait_all();
  const core::TransferModel loaded = core::TransferModel::load(*model_path_);
  const linalg::Vector reference = loaded.predict(features);
  for (const JobId id : ids) {
    ASSERT_EQ(service.status(id).state, JobState::kDone)
        << service.status(id).error;
    const linalg::Vector predicted = service.prediction(id);
    ASSERT_EQ(predicted.size(), reference.size());
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      EXPECT_EQ(predicted[i], reference[i]);
    }
  }
  const MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.engine_builds, 0u);  // the acceptance criterion
  EXPECT_EQ(snap.cache_misses, 0u);
  EXPECT_EQ(snap.predictions_computed, 0u);  // the memo is the registry's
  EXPECT_EQ(snap.predict_jobs, 5u);
  EXPECT_EQ(snap.jobs_completed, 5u);
}

TEST_F(ServiceTest, JobLifecycleStatesCancellationAndErrors) {
  ServiceConfig config;
  config.num_workers = 1;  // serialize so queued jobs stay cancellable
  FfrService service(config);

  // Unknown ids throw.
  EXPECT_THROW((void)service.status(999), std::out_of_range);
  EXPECT_THROW((void)service.wait(999), std::out_of_range);
  EXPECT_THROW((void)service.campaign_result(999), std::out_of_range);

  // A failing job: mac netlist with the pipeline testbench cannot build an
  // engine; the error is captured, not thrown on the worker.
  const JobId bad =
      service.submit_campaign(mac_->netlist, pipe_bench_->tb, small_campaign());
  const JobStatus bad_status = service.wait(bad);
  EXPECT_EQ(bad_status.state, JobState::kFailed);
  EXPECT_FALSE(bad_status.error.empty());
  EXPECT_THROW((void)service.campaign_result(bad), std::logic_error);

  // Queue a burst on the single worker and cancel the tail immediately:
  // at least the last job should still be queued at cancel time.
  std::vector<JobId> burst;
  for (int i = 0; i < 6; ++i) {
    burst.push_back(
        service.submit_campaign(mac_->netlist, mac_bench_->tb, small_campaign()));
  }
  const bool cancelled = service.cancel(burst.back());
  service.wait_all();
  if (cancelled) {
    EXPECT_EQ(service.status(burst.back()).state, JobState::kCancelled);
    EXPECT_THROW((void)service.campaign_result(burst.back()), std::logic_error);
    EXPECT_GE(service.metrics().snapshot().jobs_cancelled, 1u);
  }
  // Everything not cancelled ran to done.
  for (std::size_t i = 0; i + 1 < burst.size(); ++i) {
    EXPECT_EQ(service.status(burst[i]).state, JobState::kDone);
  }
  // Cancelling a finished job is a no-op.
  EXPECT_FALSE(service.cancel(burst.front()));

  // A missing model file fails the job with a captured error.
  const JobId missing = service.submit_predict(
      std::filesystem::path("/nonexistent/model.txt"), pipe_->netlist,
      pipe_bench_->tb);
  EXPECT_EQ(service.wait(missing).state, JobState::kFailed);
}

TEST_F(ServiceTest, MetricsTextDumpCoversTheSurface) {
  FfrService service;
  const JobId id =
      service.submit_campaign(mac_->netlist, mac_bench_->tb, small_campaign());
  (void)service.wait(id);
  const std::string text = service.metrics().to_text();
  for (const char* key :
       {"ffr_service_cache_misses 1", "ffr_service_engine_builds 1",
        "ffr_service_jobs_completed 1", "ffr_service_queue_depth 0",
        "ffr_service_campaign_seconds_count 1",
        "ffr_service_predict_seconds_count 0"}) {
    EXPECT_NE(text.find(key), std::string::npos)
        << "missing '" << key << "' in:\n" << text;
  }
}

// ---------------------------------------------------------------------------
// Multi-threaded stress (the TSan target)
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, StressMixedSubmitEvictPredictStaysBitIdentical) {
  // Single-threaded references.
  const fault::CampaignEngine mac_direct(mac_->netlist, mac_bench_->tb);
  const fault::CampaignEngine pipe_direct(pipe_->netlist, pipe_bench_->tb);
  const fault::CampaignResult mac_ref = mac_direct.run(small_campaign());
  const fault::CampaignResult pipe_ref = pipe_direct.run(small_campaign());
  const core::TransferModel loaded = core::TransferModel::load(*model_path_);
  const linalg::Vector predict_ref =
      loaded.predict(pipe_->netlist, pipe_bench_->tb);

  ServiceConfig config;
  config.num_workers = 4;
  config.registry.max_resident_bytes = 1;  // constant eviction pressure
  FfrService service(config);

  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kOpsPerThread = 4;
  std::vector<std::vector<JobId>> campaign_ids(kThreads);
  std::vector<std::vector<JobId>> predict_ids(kThreads);
  std::vector<std::vector<bool>> on_mac(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t op = 0; op < kOpsPerThread; ++op) {
          const bool mac_turn = (t + op) % 2 == 0;
          on_mac[t].push_back(mac_turn);
          campaign_ids[t].push_back(service.submit_campaign(
              mac_turn ? mac_->netlist : pipe_->netlist,
              mac_turn ? mac_bench_->tb : pipe_bench_->tb, small_campaign()));
          predict_ids[t].push_back(service.submit_predict(
              *model_path_, pipe_->netlist, pipe_bench_->tb));
          if (op == 1) {
            // Concurrent explicit eviction against in-flight jobs.
            (void)service.registry().evict(
                content_hash(mac_->netlist, mac_bench_->tb));
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  service.wait_all();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t op = 0; op < kOpsPerThread; ++op) {
      const JobId cid = campaign_ids[t][op];
      ASSERT_EQ(service.status(cid).state, JobState::kDone)
          << service.status(cid).error;
      expect_campaigns_bit_identical(on_mac[t][op] ? mac_ref : pipe_ref,
                                     service.campaign_result(cid));
      const JobId pid = predict_ids[t][op];
      ASSERT_EQ(service.status(pid).state, JobState::kDone)
          << service.status(pid).error;
      const linalg::Vector predicted = service.prediction(pid);
      ASSERT_EQ(predicted.size(), predict_ref.size());
      for (std::size_t i = 0; i < predicted.size(); ++i) {
        EXPECT_EQ(predicted[i], predict_ref[i]);
      }
    }
  }

  // Eviction-then-recompute identity under the 1-byte budget: acquiring
  // both designs back-to-back must evict the older (pinned-newest rule) and
  // still serve bit-identical campaigns.
  const auto mac_again = service.registry().acquire(mac_->netlist, mac_bench_->tb);
  const auto pipe_again =
      service.registry().acquire(pipe_->netlist, pipe_bench_->tb);
  EXPECT_EQ(service.registry().size(), 1u);
  expect_campaigns_bit_identical(mac_ref, mac_again->run(small_campaign()));
  expect_campaigns_bit_identical(pipe_ref, pipe_again->run(small_campaign()));

  const MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.jobs_submitted, kThreads * kOpsPerThread * 2);
  EXPECT_EQ(snap.jobs_completed, kThreads * kOpsPerThread * 2);
  EXPECT_EQ(snap.jobs_failed, 0u);
  EXPECT_EQ(snap.queue_depth, 0u);
  // Every acquire is accounted exactly once, every miss built exactly once,
  // and the byte budget forced real evictions.
  EXPECT_EQ(snap.cache_hits + snap.cache_misses,
            kThreads * kOpsPerThread * 2 + 2);
  EXPECT_EQ(snap.cache_misses, snap.engine_builds);
  EXPECT_GE(snap.cache_evictions, 1u);
}

TEST_F(ServiceTest, StressConcurrentFirstPredictsOnOneEntryAgree) {
  // Racing first predicts on one unseen entry: the build coalesces, each
  // racer may compute, and every caller gets the one memoized vector.
  const auto model = std::make_shared<const core::TransferModel>(
      core::TransferModel::load(*model_path_));
  const linalg::Vector reference =
      model->predict(pipe_->netlist, pipe_bench_->tb);

  ServiceMetrics metrics;
  EngineRegistry registry({}, &metrics);
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const linalg::Vector>> results(kThreads);
  std::atomic<std::size_t> ready{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        results[t] = registry.predict(pipe_->netlist, pipe_bench_->tb, model);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(results[t], nullptr);
    EXPECT_EQ(results[t].get(), results[0].get());
    EXPECT_EQ(*results[t], reference);
  }
  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.engine_builds, 1u);
  EXPECT_EQ(snap.cache_hits + snap.cache_misses, kThreads);
  EXPECT_GE(snap.predictions_computed, 1u);
  EXPECT_EQ(snap.predictions_computed + snap.predictions_reused, kThreads);

  // Through the service: a burst of predict jobs on the same entry.
  ServiceConfig config;
  config.num_workers = 4;
  FfrService service(config);
  std::vector<JobId> ids;
  for (std::size_t i = 0; i < 16; ++i) {
    ids.push_back(
        service.submit_predict(*model_path_, pipe_->netlist, pipe_bench_->tb));
  }
  service.wait_all();
  for (const JobId id : ids) {
    ASSERT_EQ(service.status(id).state, JobState::kDone)
        << service.status(id).error;
    EXPECT_EQ(service.prediction(id), reference);
  }
  const MetricsSnapshot service_snap = service.metrics().snapshot();
  EXPECT_GE(service_snap.predictions_computed, 1u);
  EXPECT_LE(service_snap.predictions_computed, config.num_workers);
  EXPECT_EQ(service_snap.predictions_computed + service_snap.predictions_reused,
            ids.size());
}

// ---------------------------------------------------------------------------
// Sharded campaign jobs
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, ShardedCampaignJobBitIdenticalToDirectRun) {
  const fault::CampaignEngine direct(mac_->netlist, mac_bench_->tb);
  const fault::CampaignResult reference = direct.run(small_campaign());

  FfrService service;
  std::vector<JobId> shard_jobs;
  const JobId merge_id = service.submit_sharded_campaign(
      mac_->netlist, mac_bench_->tb, small_campaign(), 3, {}, &shard_jobs);
  ASSERT_EQ(shard_jobs.size(), 3u);
  ASSERT_EQ(service.wait(merge_id).state, JobState::kDone)
      << service.status(merge_id).error;

  const fault::CampaignResult merged = service.campaign_result(merge_id);
  expect_campaigns_bit_identical(reference, merged);
  EXPECT_EQ(merged.total_sim_passes, reference.total_sim_passes);
  EXPECT_EQ(merged.cycles_simulated, reference.cycles_simulated);
  EXPECT_EQ(merged.ops_evaluated, reference.ops_evaluated);
  EXPECT_EQ(merged.checkpoint_restores, reference.checkpoint_restores);

  // Each shard job is an ordinary done campaign job holding its own share.
  std::uint64_t share_sum = 0;
  for (const JobId id : shard_jobs) {
    ASSERT_EQ(service.status(id).state, JobState::kDone);
    share_sum += service.campaign_result(id).total_injections;
  }
  EXPECT_EQ(share_sum, reference.total_injections);

  const MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.shards_completed, 3u);
  EXPECT_EQ(snap.shards_resumed, 0u);
  EXPECT_EQ(snap.jobs_completed, 4u);  // 3 shards + merge
  const std::string text = service.metrics().to_text();
  EXPECT_NE(text.find("ffr_service_shards_completed 3"), std::string::npos);
  EXPECT_NE(text.find("ffr_service_shards_resumed 0"), std::string::npos);
}

TEST_F(ServiceTest, ShardedCampaignResumesFromPartialDir) {
  const auto dir =
      std::filesystem::temp_directory_path() / "ffr_service_shard_resume";
  std::filesystem::remove_all(dir);

  const fault::CampaignEngine direct(mac_->netlist, mac_bench_->tb);
  const fault::CampaignResult reference = direct.run(small_campaign());

  FfrService service;
  const JobId first = service.submit_sharded_campaign(
      mac_->netlist, mac_bench_->tb, small_campaign(), 3, dir);
  ASSERT_EQ(service.wait(first).state, JobState::kDone)
      << service.status(first).error;
  expect_campaigns_bit_identical(reference, service.campaign_result(first));
  EXPECT_EQ(service.metrics().snapshot().shards_completed, 3u);
  EXPECT_EQ(service.metrics().snapshot().shards_resumed, 0u);

  // Same campaign again: every shard resumes from its partial file.
  const JobId second = service.submit_sharded_campaign(
      mac_->netlist, mac_bench_->tb, small_campaign(), 3, dir);
  ASSERT_EQ(service.wait(second).state, JobState::kDone)
      << service.status(second).error;
  expect_campaigns_bit_identical(reference, service.campaign_result(second));
  EXPECT_EQ(service.metrics().snapshot().shards_completed, 3u);
  EXPECT_EQ(service.metrics().snapshot().shards_resumed, 3u);

  // Crash recovery: one partial lost, exactly that shard re-runs.
  ASSERT_TRUE(std::filesystem::remove(dir / fault::partial_filename(1, 3)));
  const JobId third = service.submit_sharded_campaign(
      mac_->netlist, mac_bench_->tb, small_campaign(), 3, dir);
  ASSERT_EQ(service.wait(third).state, JobState::kDone)
      << service.status(third).error;
  expect_campaigns_bit_identical(reference, service.campaign_result(third));
  EXPECT_EQ(service.metrics().snapshot().shards_completed, 4u);
  EXPECT_EQ(service.metrics().snapshot().shards_resumed, 5u);

  std::filesystem::remove_all(dir);
}

TEST_F(ServiceTest, ShardedCampaignFailsOnInvalidPartial) {
  const auto dir =
      std::filesystem::temp_directory_path() / "ffr_service_shard_invalid";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream os(dir / fault::partial_filename(0, 2));
    os << "ffr-partial " << fault::kPartialFormatVersion
       << " campaign_shard\ntruncated";
  }

  FfrService service;
  std::vector<JobId> shard_jobs;
  const JobId merge_id = service.submit_sharded_campaign(
      mac_->netlist, mac_bench_->tb, small_campaign(), 2, dir, &shard_jobs);
  const JobStatus merged = service.wait(merge_id);
  // The corrupt partial fails shard 0, and the merge reports which shard.
  EXPECT_EQ(merged.state, JobState::kFailed);
  EXPECT_NE(merged.error.find("shard 0"), std::string::npos) << merged.error;
  EXPECT_EQ(service.status(shard_jobs[0]).state, JobState::kFailed);
  EXPECT_EQ(service.status(shard_jobs[1]).state, JobState::kDone);

  EXPECT_THROW((void)service.submit_sharded_campaign(
                   mac_->netlist, mac_bench_->tb, small_campaign(), 0),
               std::invalid_argument);
  std::filesystem::remove_all(dir);
}

TEST_F(ServiceTest, StressShardJobsRacingPredictsAndEvictionStayBitIdentical) {
  // The sharded-campaign TSan exercise: concurrent sharded submissions on
  // both circuits, racing predict jobs and explicit eviction under a 1-byte
  // registry budget (every shard job may rebuild the engine). Every merged
  // result must stay bit-identical to the direct single-process runs.
  const fault::CampaignEngine mac_direct(mac_->netlist, mac_bench_->tb);
  const fault::CampaignEngine pipe_direct(pipe_->netlist, pipe_bench_->tb);
  const fault::CampaignResult mac_ref = mac_direct.run(small_campaign());
  const fault::CampaignResult pipe_ref = pipe_direct.run(small_campaign());

  ServiceConfig config;
  config.num_workers = 4;
  config.registry.max_resident_bytes = 1;  // constant eviction pressure
  FfrService service(config);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kShards = 3;
  std::vector<JobId> merge_ids(kThreads);
  std::vector<std::vector<JobId>> shard_ids(kThreads);
  std::vector<JobId> predict_ids(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const bool mac_turn = t % 2 == 0;
        merge_ids[t] = service.submit_sharded_campaign(
            mac_turn ? mac_->netlist : pipe_->netlist,
            mac_turn ? mac_bench_->tb : pipe_bench_->tb, small_campaign(),
            kShards, {}, &shard_ids[t]);
        predict_ids[t] = service.submit_predict(*model_path_, pipe_->netlist,
                                                pipe_bench_->tb);
        (void)service.registry().evict(
            content_hash(mac_->netlist, mac_bench_->tb));
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  service.wait_all();

  const core::TransferModel loaded = core::TransferModel::load(*model_path_);
  const linalg::Vector predict_ref =
      loaded.predict(pipe_->netlist, pipe_bench_->tb);
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(service.status(merge_ids[t]).state, JobState::kDone)
        << service.status(merge_ids[t]).error;
    const fault::CampaignResult& reference = t % 2 == 0 ? mac_ref : pipe_ref;
    const fault::CampaignResult merged = service.campaign_result(merge_ids[t]);
    expect_campaigns_bit_identical(reference, merged);
    EXPECT_EQ(merged.total_sim_passes, reference.total_sim_passes);
    EXPECT_EQ(merged.cycles_simulated, reference.cycles_simulated);
    EXPECT_EQ(merged.ops_evaluated, reference.ops_evaluated);
    for (const JobId id : shard_ids[t]) {
      EXPECT_EQ(service.status(id).state, JobState::kDone);
    }
    const linalg::Vector predicted = service.prediction(predict_ids[t]);
    ASSERT_EQ(predicted.size(), predict_ref.size());
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      EXPECT_EQ(predicted[i], predict_ref[i]);
    }
  }

  const MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.shards_completed, kThreads * kShards);
  EXPECT_EQ(snap.shards_resumed, 0u);
  EXPECT_EQ(snap.jobs_submitted, kThreads * (kShards + 2));
  EXPECT_EQ(snap.jobs_completed, kThreads * (kShards + 2));
  EXPECT_EQ(snap.jobs_failed, 0u);
  EXPECT_EQ(snap.queue_depth, 0u);
}

}  // namespace
}  // namespace ffr::service
