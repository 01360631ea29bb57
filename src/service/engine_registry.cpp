#include "service/engine_registry.hpp"

#include <atomic>
#include <future>
#include <optional>
#include <utility>

#include "core/transfer_flow.hpp"
#include "features/extractor.hpp"

namespace ffr::service {

/// A cache slot. The netlist/testbench/engine fields are written once by the
/// builder thread before the build future is signalled; every other access
/// happens after wait() on that future (release/acquire pairing), so they
/// need no further locking. The bookkeeping fields (ready, last_use,
/// acquisitions, bytes) and the memo are guarded by the registry mutex.
struct EngineRegistry::Entry {
  ContentHash key;
  std::shared_ptr<const netlist::Netlist> netlist;  ///< Shared copy (see header).
  sim::Testbench testbench;                         ///< Re-bound onto `netlist`.
  std::optional<fault::CampaignEngine> engine;      ///< Built against the copies.
  std::promise<void> build_done;
  std::shared_future<void> build;
  std::exception_ptr build_error;

  /// One memoized prediction per model; the shared_ptr pins the model's
  /// address for as long as the memo keys on it.
  struct Memo {
    std::shared_ptr<const core::TransferModel> model;
    std::shared_ptr<const linalg::Vector> fdr;
  };
  std::vector<Memo> predictions;

  std::size_t bytes = 0;            ///< Charged bytes after a ready build.
  std::uint64_t last_use = 0;       ///< LRU tick.
  std::uint64_t acquisitions = 0;   ///< acquire() calls served.
  bool ready = false;               ///< Build finished successfully.

  /// Has served only the acquisition that built it (see Eviction).
  [[nodiscard]] bool probationary() const noexcept { return acquisitions <= 1; }

  [[nodiscard]] std::shared_ptr<const linalg::Vector> memo(
      const core::TransferModel* model) const {
    for (const Memo& m : predictions) {
      if (m.model.get() == model) return m.fdr;
    }
    return nullptr;
  }

  /// What the entry is charged against the budget: the engine, the
  /// testbench copy (its waveforms dominate) and the memoized vectors. The
  /// shared netlist copy is not charged.
  [[nodiscard]] std::size_t charged_bytes() const {
    std::size_t total =
        engine->resident_bytes() + sizeof(sim::Testbench) +
        testbench.stimulus.num_inputs() *
            (sizeof(std::vector<std::uint8_t>) + testbench.stimulus.num_cycles()) +
        testbench.loopbacks.size() * sizeof(sim::Loopback) +
        testbench.monitor.data.size() * sizeof(netlist::NetId);
    for (const Memo& m : predictions) {
      total += sizeof(linalg::Vector) + m.fdr->size() * sizeof(double);
    }
    return total;
  }
};

const char* to_string(EvictionReason reason) noexcept {
  switch (reason) {
    case EvictionReason::kProbation: return "probation";
    case EvictionReason::kBudget: return "budget";
    case EvictionReason::kExplicit: return "explicit";
  }
  return "unknown";
}

EngineRegistry::EngineRegistry(RegistryConfig config, ServiceMetrics* metrics)
    : config_(config), metrics_(metrics) {
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<ServiceMetrics>();
    metrics_ = owned_metrics_.get();
  }
}

std::shared_ptr<const fault::CampaignEngine> EngineRegistry::acquire(
    const netlist::Netlist& nl, const sim::Testbench& tb) {
  std::shared_ptr<Entry> entry = acquire_entry(nl, tb);
  const fault::CampaignEngine* engine = &*entry->engine;
  return std::shared_ptr<const fault::CampaignEngine>(std::move(entry), engine);
}

std::shared_ptr<const linalg::Vector> EngineRegistry::predict(
    const netlist::Netlist& nl, const sim::Testbench& tb,
    const std::shared_ptr<const core::TransferModel>& model) {
  const std::shared_ptr<Entry> entry = acquire_entry(nl, tb);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto fdr = entry->memo(model.get())) {
      metrics_->predictions_reused.fetch_add(1, std::memory_order_relaxed);
      return fdr;
    }
  }
  // The cached engine already holds the golden activity trace, so this
  // never simulates (and never fault-injects at all).
  const fault::CampaignEngine& engine = *entry->engine;
  auto fdr = std::make_shared<const linalg::Vector>(model->predict(
      features::extract_features(engine.netlist(), engine.golden().activity)));
  metrics_->predictions_computed.fetch_add(1, std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(mutex_);
  if (auto first = entry->memo(model.get())) return first;  // lost the race
  entry->predictions.push_back({model, fdr});
  auto it = entries_.find(entry->key);
  if (it != entries_.end() && it->second == entry && entry->ready) {
    entry->bytes = entry->charged_bytes();
    enforce_budget_locked(entry->key);
    update_gauges_locked();
  }
  return fdr;
}

std::shared_ptr<const netlist::Netlist> EngineRegistry::share_netlist(
    const ContentHash& key, const netlist::Netlist& nl) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = netlists_.find(key);
    if (it != netlists_.end()) {
      if (auto shared = it->second.lock()) return shared;
    }
  }
  // Copied outside the lock; a concurrent builder of the same design may
  // publish its copy first, and then this one is dropped.
  auto copy = std::make_shared<const netlist::Netlist>(nl);
  std::lock_guard<std::mutex> lock(mutex_);
  std::weak_ptr<const netlist::Netlist>& slot = netlists_[key];
  if (auto shared = slot.lock()) return shared;
  slot = copy;
  return copy;
}

std::shared_ptr<EngineRegistry::Entry> EngineRegistry::acquire_entry(
    const netlist::Netlist& nl, const sim::Testbench& tb) {
  const ContentKeys keys = content_keys(nl, tb);

  std::shared_ptr<Entry> entry;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(keys.full);
    if (it != entries_.end()) {
      entry = it->second;
      metrics_->cache_hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      entry = std::make_shared<Entry>();
      entry->key = keys.full;
      entry->build = entry->build_done.get_future().share();
      entries_.emplace(keys.full, entry);
      builder = true;
      metrics_->cache_misses.fetch_add(1, std::memory_order_relaxed);
    }
  }

  if (builder) {
    try {
      entry->netlist = share_netlist(keys.netlist, nl);
      entry->testbench = sim::retarget_testbench(tb, nl, *entry->netlist);
      // The golden simulation — the expensive step the cache amortizes —
      // runs here, outside the registry lock.
      entry->engine.emplace(*entry->netlist, entry->testbench);
      metrics_->engine_builds.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      entry->build_error = std::current_exception();
      entry->build_done.set_value();
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(keys.full);
      if (it != entries_.end() && it->second == entry) entries_.erase(it);
      update_gauges_locked();
      throw;
    }
    entry->build_done.set_value();
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(keys.full);
    if (it != entries_.end() && it->second == entry) {
      // `bytes` is mutex-guarded (a concurrent evict() of a mid-build slot
      // reads it for the eviction record), so it is published here, not on
      // the unlocked build path above.
      entry->bytes = entry->charged_bytes();
      entry->ready = true;
      entry->last_use = ++use_tick_;
      ++entry->acquisitions;
      enforce_budget_locked(keys.full);
      update_gauges_locked();
    }
    // else: the slot was explicitly evicted mid-build; serve the engine to
    // this caller anyway — the returned shared_ptr keeps it alive.
  } else {
    entry->build.wait();
    if (entry->build_error != nullptr) {
      std::rethrow_exception(entry->build_error);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    entry->last_use = ++use_tick_;
    // The second acquisition promotes the entry out of the probation slice.
    if (++entry->acquisitions == 2 && entry->ready) update_gauges_locked();
  }
  return entry;
}

void EngineRegistry::evict_locked(
    std::map<ContentHash, std::shared_ptr<Entry>>::iterator it,
    EvictionReason reason) {
  const std::shared_ptr<Entry>& entry = it->second;
  EvictionRecord record;
  record.key = it->first;
  record.circuit = entry->ready ? entry->netlist->name() : "(building)";
  record.bytes = entry->bytes;
  record.acquisitions = entry->acquisitions;
  record.reason = reason;
  if (eviction_log_.size() == kEvictionLogCapacity) eviction_log_.pop_front();
  eviction_log_.push_back(std::move(record));
  metrics_->cache_evictions.fetch_add(1, std::memory_order_relaxed);
  std::atomic<std::uint64_t>& by_reason =
      reason == EvictionReason::kProbation ? metrics_->evictions_probation
      : reason == EvictionReason::kBudget  ? metrics_->evictions_budget
                                           : metrics_->evictions_explicit;
  by_reason.fetch_add(1, std::memory_order_relaxed);
  metrics_->evicted_bytes.fetch_add(entry->bytes, std::memory_order_relaxed);
  entries_.erase(it);
}

void EngineRegistry::enforce_budget_locked(const ContentHash& pinned) {
  if (config_.max_resident_bytes == 0) return;
  evict_lru_over_locked(pinned, probation_slice_bytes(), true,
                        EvictionReason::kProbation);
  evict_lru_over_locked(pinned, config_.max_resident_bytes, false,
                        EvictionReason::kBudget);
}

void EngineRegistry::evict_lru_over_locked(const ContentHash& pinned,
                                           std::size_t budget,
                                           bool probation_only,
                                           EvictionReason reason) {
  for (;;) {
    std::size_t total = 0;
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const Entry& entry = *it->second;
      if (!entry.ready || (probation_only && !entry.probationary())) continue;
      total += entry.bytes;
      if (it->first == pinned) continue;
      if (victim == entries_.end() || entry.last_use < victim->second->last_use) {
        victim = it;
      }
    }
    // Nothing but the pinned entry left to drop: it stays, over budget.
    if (total <= budget || victim == entries_.end()) return;
    evict_locked(victim, reason);
  }
}

void EngineRegistry::update_gauges_locked() {
  std::size_t engines = 0;
  std::size_t bytes = 0;
  std::size_t probation = 0;
  for (const auto& [key, entry] : entries_) {
    if (!entry->ready) continue;
    ++engines;
    bytes += entry->bytes;
    if (entry->probationary()) probation += entry->bytes;
  }
  metrics_->resident_engines.store(engines, std::memory_order_relaxed);
  metrics_->resident_bytes.store(bytes, std::memory_order_relaxed);
  metrics_->probation_bytes.store(probation, std::memory_order_relaxed);
  std::erase_if(netlists_, [](const auto& slot) { return slot.second.expired(); });
  metrics_->resident_netlists.store(netlists_.size(), std::memory_order_relaxed);
}

bool EngineRegistry::evict(const ContentHash& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  evict_locked(it, EvictionReason::kExplicit);
  update_gauges_locked();
  return true;
}

void EngineRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  while (!entries_.empty()) evict_locked(entries_.begin(), EvictionReason::kExplicit);
  update_gauges_locked();
}

std::size_t EngineRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t ready = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry->ready) ++ready;
  }
  return ready;
}

std::size_t EngineRegistry::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t bytes = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry->ready) bytes += entry->bytes;
  }
  return bytes;
}

std::vector<EvictionRecord> EngineRegistry::eviction_log() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {eviction_log_.begin(), eviction_log_.end()};
}

EngineRegistry& default_engine_registry() {
  static EngineRegistry registry;
  return registry;
}

}  // namespace ffr::service
