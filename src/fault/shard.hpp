#pragma once
/// \file shard.hpp
/// \brief Sharded campaigns: mergeable per-shard partial results, a versioned
/// text serialization, order-independent merging, and resume-from-partial.
///
/// A k-of-N shard (CampaignConfig::shard) runs the batched CampaignEngine
/// over its share of the FULL campaign's deterministic pass schedule (see
/// ShardSpec for how passes are dealt). Each pass's science output and cost
/// counters depend only on its own job range, and shard 0 alone answers the
/// upsets proven to need no lane, so the
/// N partials merge back into a CampaignResult bit-identical to the
/// unsharded run — FDR vector, class counts, and every deterministic counter
/// (proven_injections, collapsed_injections, total_sim_passes,
/// cycles_simulated, ops_evaluated,
/// op_block_evals, ff_block_ticks, checkpoint_restores, pass_histogram)
/// included.
///
/// ## Partial file format
///
/// The token rules (doubles, byte strings, the `end` sentinel, positioned
/// errors) are util/token_reader.hpp's; the fields are:
///
///     ffr-partial <version> campaign_shard
///     engine <content-hash-hex>
///     shard <index> <count>
///     config <injections_per_ff> <seed>
///     shape <lanes_per_pass> <blocks_per_pass>
///     counters <total_injections> <proven_injections>
///              <collapsed_injections> <total_sim_passes> <cycles_simulated>
///              <ops_evaluated> <op_block_evals> <ff_block_ticks>
///              <checkpoint_restores> <checkpoint_bytes>
///     wall <seconds>
///     histogram <n>  then n rows of <width> <blocks> <passes>
///     ffs <n>        then n rows of <ff_index> <injections> <5 class counts>
///                    <name-length> <name-bytes>
///     warnings <n>   then n rows of <length> <bytes>
///     end
///
/// Names and warnings are byte strings, so embedded spaces survive.
///
/// ## Resume rules
///
/// run_sharded_campaign() keeps one canonical file per shard
/// (`shard_<k>_of_<N>.partial`) in a working directory. A present, loadable
/// partial whose fingerprint (engine content hash + shard spec + campaign
/// config + resolved pass shape) matches is trusted and its shard is NOT
/// re-run; a missing file re-runs exactly that shard; a present file that is
/// truncated, corrupt, wrong-version, or fingerprint-mismatched is an error —
/// resuming over it silently would risk merging science from a different
/// circuit or config.

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/engine.hpp"

namespace ffr::fault {

/// Current (and only supported) version of the partial text format.
/// Version 2 added op_block_evals and ff_block_ticks to `counters`; version
/// 3 dropped the replay mode and checkpoint interval from `config`, since
/// the engine has one replay path at the fixed kCheckpointInterval; version
/// 4 marks the engine's (checkpoint segment, flip-flop, cycle) job order,
/// which changed which jobs each pass, and so each shard, carries; version
/// 5 added proven_injections to `counters`, since upsets of unobservable
/// flip-flops left the job list; version 6 marks the schedule whose passes
/// all run at the campaign's lane width, which moved a tail that used to be
/// re-sliced into narrower passes (and so which shard owns which jobs), and
/// dropped checkpoint_bytes_unpacked from `counters`; version 7 added
/// collapsed_injections to `counters`, since the job list became one
/// weighted job per hold-link representative, which moved which jobs each
/// pass, and so each shard, carries; version 8 marks the checkpoint_bytes of
/// `counters` that no longer count a copy of the golden frame stream, so
/// the same campaign reports a smaller footprint. Older files are rejected
/// like any other unsupported version. The cost counters depend on
/// kCheckpointInterval, on the job list and its order and on the pass
/// schedule (fault/engine.hpp): changing any of them requires another
/// version bump.
inline constexpr int kPartialFormatVersion = 8;

/// One shard's campaign accumulators plus the fingerprint that guards
/// merging: two partials may only merge when they come from the same engine
/// (content hash), the same N, and the same science-and-schedule-relevant
/// config.
struct CampaignPartial {
  /// Hex content hash of the (netlist, testbench) pair the shard ran on:
  /// CampaignEngine::content_hash().hex() of the engine that produced it.
  std::string engine_hash;
  std::size_t shard_index = 0;  ///< This shard's id in [0, shard_count).
  std::size_t shard_count = 1;  ///< Total shards of the campaign.
  /// Campaign fingerprint: fields that determine the job list and pass
  /// schedule. lane width and blocks_per_pass are carried RESOLVED inside
  /// `result` (lanes_per_pass/blocks_per_pass), so partials produced by
  /// kAuto on hosts that resolve differently refuse to merge instead of
  /// silently mixing pass schedules.
  std::size_t injections_per_ff = 0;
  std::uint64_t seed = 0;
  /// This shard's share of the campaign: per-FF accumulators over the owned
  /// passes' jobs only, plus this shard's deterministic cost counters.
  CampaignResult result;

  /// Writes the partial in the versioned text format.
  void save(std::ostream& os) const;
  /// save() into a new file at `path` (parent directories created).
  /// \throws std::runtime_error when the file cannot be opened.
  void save_file(const std::filesystem::path& path) const;
  /// Reads one partial; `source` names the stream in error messages.
  /// \throws std::runtime_error positioned as `<source>: <what> (at byte N)`
  ///         on a bad magic/version/tag, malformed field, inconsistent class
  ///         sums, or truncation.
  [[nodiscard]] static CampaignPartial load(std::istream& is,
                                            const std::string& source);
  /// load() from the file at `path`.
  [[nodiscard]] static CampaignPartial load_file(
      const std::filesystem::path& path);
};

/// Canonical partial filename used by the resume protocol:
/// "shard_<index>_of_<count>.partial".
[[nodiscard]] std::string partial_filename(std::size_t index,
                                           std::size_t count);

/// Runs one shard on the engine and wraps the result with its merge
/// fingerprint (the engine's content_hash() and the config). `config.shard`
/// selects the shard.
[[nodiscard]] CampaignPartial run_shard(const CampaignEngine& engine,
                                        const CampaignConfig& config);

/// Resume primitive: loads `dir / partial_filename(...)` when present,
/// otherwise runs the shard and saves the partial there. A present file
/// that fails to load or whose fingerprint does not match the engine's
/// content_hash() and `config` is an error, never silently re-run.
/// `resumed` (optional) reports whether the partial came from disk.
/// \throws std::runtime_error on an invalid or mismatched existing partial.
[[nodiscard]] CampaignPartial load_or_run_shard(const CampaignEngine& engine,
                                                const CampaignConfig& config,
                                                const std::filesystem::path& dir,
                                                bool* resumed = nullptr);

/// Merges the N partials of one campaign back into the unsharded
/// CampaignResult, bit-identically: per-FF class counts and injections sum,
/// deterministic counters sum, the pass histogram sums by shape (ordered
/// widest shape first, exactly as the unsharded engine emits it), and
/// duplicate per-shard warnings collapse to one. Order-independent: any
/// permutation of `partials` produces the identical result.
/// \throws std::runtime_error when partials are missing/duplicated, their
///         fingerprints disagree, or per-FF rows are inconsistent.
[[nodiscard]] CampaignResult merge_partials(
    const std::vector<CampaignPartial>& partials);

/// What run_sharded_campaign() did per shard, for tests and operators.
struct ResumeReport {
  std::vector<std::size_t> resumed;   ///< Shards loaded from disk.
  std::vector<std::size_t> executed;  ///< Shards (re-)run this call.
  /// Deterministic cost of the executed shards only (zero when every shard
  /// was resumed): proves resume re-ran exactly the missing work.
  std::uint64_t passes_executed = 0;
  std::uint64_t cycles_executed = 0;
};

/// Runs or resumes a whole N-shard campaign in `dir`: for every shard index
/// in [0, config.shard.count), load_or_run_shard(), then merge_partials().
/// `config.shard.index` is ignored; `config.shard.count` is N (1 = a
/// single-shard campaign that still round-trips through a partial file).
/// \throws std::runtime_error on invalid existing partials (see
///         load_or_run_shard) or a failed merge.
[[nodiscard]] CampaignResult run_sharded_campaign(
    const CampaignEngine& engine, const CampaignConfig& config,
    const std::filesystem::path& dir, ResumeReport* report = nullptr);

}  // namespace ffr::fault
