#pragma once
/// \file engine_registry.hpp
/// \brief Content-addressed cache of fault::CampaignEngine instances.
///
/// Before this layer, golden-run reuse was *per-object*: every caller that
/// constructed its own CampaignEngine re-ran the golden simulation even for
/// a (netlist, testbench) pair another caller had already paid for. The
/// registry keys engines by service::content_hash, so concurrent and
/// repeated requests — from any thread, with any structurally identical
/// copy of the design — share one cached golden run, checkpoint set and
/// compiled stimulus.
///
/// ## Ownership
///
/// acquire() builds the engine against copies the entry owns, so a cached
/// engine never dangles when the caller's objects die — the lifetime
/// coupling that makes a long-lived cache safe for library users.
///
/// - **Netlist: one shared copy per design.** Entries whose netlists have
///   equal content (the ContentKeys::netlist part of the key) share one
///   owned Netlist, found through a weak map: many testbenches on one
///   design — e.g. a stream of never-seen workloads on a known circuit —
///   cost one netlist copy, and the copy dies with the last entry (or
///   caller-held engine) using it.
/// - **Testbench: one copy per entry**, re-bound by net name onto the
///   shared netlist with sim::retarget_testbench. A Verilog re-import
///   hashes equal to its original but numbers its nets differently, so the
///   caller's NetIds cannot be carried over as they are.
///
/// Flip-flop order and names survive the re-bind, so campaign results and
/// predictions off the cached engine are bit-identical to running on the
/// caller's originals. Returned shared_ptrs alias the entry: an engine
/// stays alive while any caller holds it, even after the registry evicts
/// the entry.
///
/// ## Prediction memo
///
/// predict() memoizes each entry's FDR prediction per loaded
/// core::TransferModel. The memo key holds the model's shared_ptr, so a
/// model's address cannot be reused by a different model while its memo
/// lives. A warm predict is one acquire() plus one lookup and returns the
/// shared vector itself; concurrent first predicts on one entry may each
/// compute (metered as predictions_computed), and the first to finish is
/// the one memoized and returned to all of them.
///
/// ## Concurrency
///
/// A single mutex guards the table, the netlist map and the memos; golden
/// simulations and predictions run *outside* it. Concurrent acquire()s of
/// the same unseen key coalesce onto one build via a shared future (the
/// losers block until the winner's golden run lands, then count as cache
/// hits). CampaignEngine::run is const and internally synchronized, so any
/// number of threads can run campaigns on one cached engine concurrently.
///
/// ## Eviction
///
/// Entries are charged CampaignEngine::resident_bytes() (dominated by the
/// compiled stimulus and the hold links, charged before their first
/// campaign sweeps them; checkpoints are bit-packed at 1 bit/FF) plus their
/// testbench copy and memoized prediction vectors. Shared netlist copies
/// are not charged. Two byte limits apply, both least-recently-used first:
///
/// - **Probation slice.** An entry that has served only the acquisition
///   that built it is *probationary*. Probationary entries share a slice
///   of max_resident_bytes / kProbationSliceDivisor (1 MiB at the 256 MB
///   default); when their sum overflows it, the least recently used
///   probationary entry goes (EvictionReason::kProbation). A second
///   acquisition promotes an entry out of the slice. A stream of one-shot
///   workloads (never-seen testbenches, each acquired once) thus cycles
///   through the slice instead of filling the whole budget — an entry is
///   charged less than the memory it really holds, so ~6,800 one-shot
///   pipeline entries would fit the default budget — and cannot push out
///   the warm designs it is interleaved with.
/// - **Whole budget.** When all entries together exceed
///   RegistryConfig::max_resident_bytes, the least recently used entry of
///   any kind goes (EvictionReason::kBudget).
///
/// Neither limit evicts the entry being returned or memoized into, so the
/// newest engine is always resident even if it alone exceeds the budget
/// or the slice. Eviction drops an entry's memo with it, and the shared
/// netlist copy once no entry or caller-held engine uses it. Evictions are
/// counted in ServiceMetrics per reason and recorded per entry in an
/// eviction log the stress tests and the ffr_service demo read back.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fault/engine.hpp"
#include "linalg/matrix.hpp"
#include "service/content_hash.hpp"
#include "service/metrics.hpp"

namespace ffr::core {
class TransferModel;
}  // namespace ffr::core

namespace ffr::service {

struct RegistryConfig {
  /// Byte budget for the bytes charged to cached entries (see Eviction);
  /// probationary entries share max_resident_bytes / kProbationSliceDivisor
  /// of it. 0 = unlimited (no slice either).
  /// The most recently acquired entry is never evicted, so a single engine
  /// larger than the budget still serves (with nothing else cached).
  std::size_t max_resident_bytes = std::size_t{256} << 20;
};

/// The probation slice is this fraction of RegistryConfig::max_resident_bytes.
inline constexpr std::size_t kProbationSliceDivisor = 256;

/// Why an entry left the registry.
enum class EvictionReason {
  kProbation,  ///< One-shot entry pushed out of the probation slice.
  kBudget,     ///< Least recently used when the whole budget overflowed.
  kExplicit,   ///< EngineRegistry::evict() or clear().
};

/// "probation", "budget" or "explicit".
[[nodiscard]] const char* to_string(EvictionReason reason) noexcept;

/// EngineRegistry::eviction_log() keeps this many of the newest evictions;
/// the per-reason counters in ServiceMetrics count all of them.
inline constexpr std::size_t kEvictionLogCapacity = 64;

/// One eviction, oldest first in EngineRegistry::eviction_log().
struct EvictionRecord {
  ContentHash key;
  std::string circuit;        ///< Netlist name, for log readability.
  std::size_t bytes = 0;      ///< Charged bytes reclaimed.
  std::uint64_t acquisitions = 0;  ///< Hits + the initial miss it served.
  EvictionReason reason = EvictionReason::kBudget;
};

class EngineRegistry {
 public:
  /// `metrics`, when non-null, must outlive the registry; hit/miss/eviction
  /// and residency gauges are maintained there (shared with the job queue
  /// when the registry lives inside an FfrService).
  explicit EngineRegistry(RegistryConfig config = {},
                          ServiceMetrics* metrics = nullptr);

  EngineRegistry(const EngineRegistry&) = delete;
  EngineRegistry& operator=(const EngineRegistry&) = delete;

  /// The engine for this (netlist, testbench) content, building (and
  /// caching) it on first sight. Blocks while another thread builds the
  /// same key. The caller's netlist/testbench are only read during the
  /// call — the cache owns private copies.
  /// \throws whatever CampaignEngine's constructor throws on an invalid
  ///         pair (e.g. a stimulus/PI mismatch); failed builds are not
  ///         cached, so a later acquire() retries.
  [[nodiscard]] std::shared_ptr<const fault::CampaignEngine> acquire(
      const netlist::Netlist& nl, const sim::Testbench& tb);

  /// `model`'s per-flip-flop FDR prediction for this (netlist, testbench)
  /// content, in Netlist::flip_flops() order: acquire() once, then serve
  /// the entry's memo for `model`, filling it on first use from the cached
  /// golden activity (features::extract_features + TransferModel::predict).
  /// The returned vector is shared with the memo, never copied.
  /// \throws whatever acquire() or the model throws; nothing is memoized
  ///         then.
  [[nodiscard]] std::shared_ptr<const linalg::Vector> predict(
      const netlist::Netlist& nl, const sim::Testbench& tb,
      const std::shared_ptr<const core::TransferModel>& model);

  /// Drops the entry for `key` if cached; returns whether anything was
  /// evicted. Engines still held by callers stay alive until released.
  bool evict(const ContentHash& key);

  /// Drops every cached entry (metrics count them as evictions).
  void clear();

  [[nodiscard]] const RegistryConfig& config() const noexcept { return config_; }

  /// Number of cached entries (ready builds only).
  [[nodiscard]] std::size_t size() const;
  /// Sum of the bytes charged to cached entries (engine, testbench copy,
  /// memoized predictions).
  [[nodiscard]] std::size_t resident_bytes() const;
  /// The probation slice: max_resident_bytes / kProbationSliceDivisor, or
  /// 0 for an unlimited registry (no slice). ServiceMetrics::probation_bytes
  /// reports how much of it is in use.
  [[nodiscard]] std::size_t probation_slice_bytes() const noexcept {
    return config_.max_resident_bytes / kProbationSliceDivisor;
  }
  /// The newest kEvictionLogCapacity evictions, oldest first, each naming
  /// its EvictionReason (probation slice, whole budget, evict() / clear()).
  [[nodiscard]] std::vector<EvictionRecord> eviction_log() const;

 private:
  struct Entry;

  [[nodiscard]] std::shared_ptr<Entry> acquire_entry(const netlist::Netlist& nl,
                                                     const sim::Testbench& tb);
  [[nodiscard]] std::shared_ptr<const netlist::Netlist> share_netlist(
      const ContentHash& key, const netlist::Netlist& nl);
  void evict_locked(std::map<ContentHash, std::shared_ptr<Entry>>::iterator it,
                    EvictionReason reason);
  void enforce_budget_locked(const ContentHash& pinned);
  /// Evicts LRU-first among the ready entries (only probationary ones when
  /// `probation_only`), never `pinned`, until their bytes fit `budget`.
  void evict_lru_over_locked(const ContentHash& pinned, std::size_t budget,
                             bool probation_only, EvictionReason reason);
  void update_gauges_locked();

  RegistryConfig config_;
  ServiceMetrics* metrics_;  ///< Never null (falls back to an owned instance).
  std::unique_ptr<ServiceMetrics> owned_metrics_;

  mutable std::mutex mutex_;
  std::map<ContentHash, std::shared_ptr<Entry>> entries_;
  /// Netlist copies by ContentKeys::netlist; expired slots are pruned on
  /// every gauge update.
  std::map<ContentHash, std::weak_ptr<const netlist::Netlist>> netlists_;
  std::deque<EvictionRecord> eviction_log_;  // at most kEvictionLogCapacity
  std::uint64_t use_tick_ = 0;
};

/// The process-wide registry behind the library-level
/// core::run_estimation_flow(netlist, testbench) overload: repeated flow
/// invocations on content-identical pairs share one golden run without the
/// caller constructing an engine or a service. Default budget, private
/// metrics. Thread-safe (function-local static).
[[nodiscard]] EngineRegistry& default_engine_registry();

}  // namespace ffr::service
