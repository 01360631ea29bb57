#pragma once
/// \file engine.hpp
/// \brief Batched SFI campaign engine (paper §IV-A at scale).
///
/// CampaignEngine precomputes everything that is invariant across a
/// campaign's simulation passes — the compiled stimulus (waveforms validated
/// once and pre-broadcast to 64-lane words), the golden frame stream /
/// activity trace and bit-packed golden-state checkpoints every
/// kCheckpointInterval cycles with the golden interface tape
/// (sim::GoldenCheckpoints at 1 bit per FF), all from one sim::run_golden()
/// call — and keeps one sim::WideReplayRunner per worker thread and pass
/// shape so the levelized evaluation order is built once per worker instead
/// of once per pass. Every pass, 64-lane ones included, runs on that one
/// replay engine. The first run() also sweeps the engine's hold links
/// (sim::HoldLinks), memoized for every later run: an upset that sits
/// unread in its flip-flop has the outcome of the same flip-flop's upset one
/// cycle later, so each injection follows its chain of links to one
/// representative upset, which is simulated once for all of them
/// (CampaignResult::collapsed_injections). An injection into a flip-flop
/// outside the testbench's sim::ObservableCone, or one whose chain ends in
/// a cycle where the upset is masked, is answered kOk without a lane
/// (CampaignResult::proven_injections). run() packs the representatives
/// across flip-flops: they form one flat job list, sorted by (checkpoint
/// segment, flip-flop, cycle) and sliced into passes (build_pass_schedule).
/// Every pass runs at the campaign's resolved lane_width — the SIMD block
/// (64 = one 64-bit word, 256 AVX2, 512 AVX-512; kAuto dispatches via
/// CPUID). Full passes sweep blocks_per_pass
/// blocks per op to keep the vector pipelines busy past the register width;
/// the one tail pass sweeps just enough blocks for the jobs left. Each pass
/// restores the latest golden checkpoint at or before its earliest
/// injection (splatting each packed golden bit across whole blocks),
/// fast-forwards from there and evaluates only the dirty cone per cycle;
/// the job order (order_campaign_jobs) keeps that start late and that cone
/// small. Passes are distributed over a
/// work-stealing pool in auto-sized chunks.
///
/// Guarantee: for the same CampaignConfig seed/injection knobs, run() is
/// bit-identical to run_campaign() — same per-flip-flop class counts and
/// FDR vector — for every thread count, lane width, block count and shard
/// split (see tests/test_campaign_engine.cpp,
/// tests/test_incremental_replay.cpp and tests/test_lane_width.cpp).

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "netlist/netlist.hpp"
#include "sim/runner.hpp"
#include "sim/wide_runner.hpp"

namespace ffr::util {
class ThreadPool;
}

namespace ffr::fault {

/// Cycles between the golden checkpoints the engine records, clamped to the
/// testbench length. The interval is also the segment width of run()'s
/// (segment, flip-flop, cycle) job order, so it moves two costs at once: a
/// shorter one lets passes restore closer to their injections (fewer cycles
/// simulated), a longer one groups more of each flip-flop's injections in
/// one segment, so a pass's lanes can mix fewer flip-flops (fewer visited
/// ops).
/// Results are bit-identical at any interval; the cost counters are not
/// (see kPartialFormatVersion in fault/shard.hpp).
inline constexpr std::size_t kCheckpointInterval = 16;

/// One simulated upset of a campaign: the flip-flop at position `task` of
/// the campaign's flip-flop subset is upset at the start of `cycle`, and the
/// outcome answers `weight` of the campaign's injections.
struct CampaignJob {
  std::uint32_t task = 0;
  std::uint32_t cycle = 0;
  std::uint32_t weight = 1;
};

/// The jobs of a campaign over `subset` (injection_cycles() of each subset
/// flip-flop) in the order run() slices into passes: (cycle / interval,
/// task, cycle), where `interval` is the engine's checkpoint interval. A
/// pass resumes from the latest checkpoint at or before its earliest
/// injection, and its cost is the union of its lanes' fan-out cones. The
/// segment sets where a pass starts, exactly as a plain cycle sort would, so
/// passes, cycles and restores match it; grouping by flip-flop within the
/// segment sets how much cone the lanes share. The key therefore trades
/// nothing, and since per-job outcomes are lane-independent, the order never
/// changes the science.
///
/// Each injection (f, c) follows its chain of `links` (sim::HoldLinks of the
/// same testbench) to the representative (f, r), the first cycle r >= c
/// without a link; one walk forward over each flip-flop's sorted cycles
/// finds them all. Injections with the same representative become one job
/// weighted by their count, and those whose representative is masked get no
/// job at all: their outcome is kOk. An empty sim::HoldLinks{} links and
/// masks nothing, so with it every distinct injection cycle is one job.
/// \throws std::invalid_argument when `interval` is 0 or the testbench's
///         injection window is empty.
[[nodiscard]] std::vector<CampaignJob> order_campaign_jobs(
    const CampaignConfig& config, const sim::Testbench& tb,
    const std::vector<std::size_t>& subset, std::size_t interval,
    const sim::HoldLinks& links);

/// One planned pass of the engine's schedule: jobs [job_begin, job_end) run
/// as `blocks` SIMD lane blocks at the campaign's lane width. Only the final
/// pass of a schedule may be masked (fewer jobs than lanes).
struct PlannedPass {
  std::size_t blocks = 1;     ///< Lane blocks swept in this pass.
  std::size_t job_begin = 0;  ///< First job (inclusive).
  std::size_t job_end = 0;    ///< Last job (exclusive).
};

/// Slices a `num_jobs`-injection job list into passes of `full_blocks`
/// blocks of `width` lanes each: ceil(num_jobs / (width * full_blocks))
/// contiguous passes, every one full but the last, which carries
/// ceil(remaining jobs / width) blocks. A visited op costs about the same
/// at every shape, so re-slicing the tail into narrower kernels saves no
/// work worth a second kernel width per campaign. At 64x1 this is exactly
/// ceil(num_jobs / 64) passes. Deterministic — depends only on the
/// arguments, never the host.
/// \throws std::invalid_argument when `width` or `full_blocks` is 0.
[[nodiscard]] std::vector<PlannedPass> build_pass_schedule(std::size_t num_jobs,
                                                           std::size_t width,
                                                           std::size_t full_blocks);

/// Resolves CampaignConfig::blocks_per_pass for a campaign at `width_lanes`
/// over a `num_nets`-net circuit. 0 = auto: 1 at the 64-lane width (its
/// pinned pass counts are never changed implicitly), otherwise the
/// largest power-of-two block count whose per-pass net-state footprint
/// (num_nets * width_lanes / 8 bytes per block) stays within a fixed
/// cache-class budget — a deterministic rule, so schedules and counters are
/// machine-independent. Explicit requests above sim::kMaxLaneBlocksPerPass
/// are clamped with a warning written to `*warning` (when non-null).
[[nodiscard]] std::size_t resolve_blocks_per_pass(std::size_t requested,
                                                  std::size_t width_lanes,
                                                  std::size_t num_nets,
                                                  std::string* warning = nullptr);

class CampaignEngine {
 public:
  /// Compiles the stimulus and runs the golden simulation once, recording
  /// golden-state checkpoints every min(kCheckpointInterval, testbench
  /// length) cycles. The netlist and testbench must outlive the engine.
  /// \throws std::invalid_argument when sim::validate_testbench() rejects
  /// the pair.
  CampaignEngine(const netlist::Netlist& nl, const sim::Testbench& tb);

  [[nodiscard]] const netlist::Netlist& netlist() const noexcept { return *nl_; }
  [[nodiscard]] const sim::Testbench& testbench() const noexcept { return *tb_; }

  /// The golden run shared by every campaign and estimation-flow invocation
  /// on this engine (frames, per-FF activity trace, eval accounting).
  [[nodiscard]] const sim::GoldenResult& golden() const noexcept { return golden_; }

  /// The golden checkpoints recorded by the constructor: every pass resumes
  /// from them, and their interface tape drives the golden-relative monitor.
  /// Empty (no snapshots, interval 0) on a zero-cycle testbench.
  [[nodiscard]] const sim::GoldenCheckpoints& checkpoints() const noexcept {
    return checkpoints_;
  }

  /// Batched campaign over the configured flip-flop subset. Bit-identical to
  /// run_campaign(netlist(), testbench(), golden(), config), but with
  /// unobservable and masked upsets answered without simulation, one lane
  /// per hold-link representative, cross-flip-flop lane packing,
  /// checkpointed mid-stream starts, passes pruned to the observable cone
  /// that stop once back on golden, dirty-set evaluation, a golden-relative
  /// monitor and chunked work-stealing scheduling. With config.shard.count >
  /// 1 only the shard's share of the full pass schedule runs (see ShardSpec /
  /// fault/shard.hpp); merging all N shards' results reconstructs the
  /// unsharded run bit-identically. The first run() on an engine sweeps its
  /// hold links on that run's worker pool, once: concurrent first runs wait
  /// for the one sweep, and nothing else in the engine ever changes, so
  /// concurrent run() calls on one engine are safe (each brings its own
  /// worker pool).
  /// \throws std::invalid_argument on a zero-cycle testbench, an empty
  ///         injection window or an invalid shard spec.
  [[nodiscard]] CampaignResult run(const CampaignConfig& config = {}) const;

  /// The engine's content key: sim::content_hash(netlist(), testbench()).
  /// Campaign partials (fault/shard.hpp) carry it, so a persisted shard can
  /// only be resumed or merged by an engine on the same netlist and
  /// stimulus. Computed on each call, not at construction: the first key of
  /// a netlist renders its whole Verilog (later calls reuse the memoized
  /// Netlist::content_key() and fold only the testbench).
  [[nodiscard]] netlist::ContentHash content_hash() const;

  /// Approximate bytes this engine keeps resident across campaigns: the
  /// pre-broadcast compiled stimulus, the golden frame stream and activity
  /// trace, the bit-packed checkpoint set and the hold links (charged from
  /// construction, before the first run() sweeps them, so the charge never
  /// changes). This is the cost the service-layer engine registry charges an
  /// entry against its byte budget.
  [[nodiscard]] std::size_t resident_bytes() const;

  /// The work of the engine's one hold-link sweep
  /// (sim::WideReplayRunner::sweep_links at the host's native lane width). It runs inside the first run() on this
  /// engine and is reported here, never in a CampaignResult, so campaign
  /// counters stay a function of (netlist, testbench, config) alone.
  struct LinkSweepStats {
    bool swept = false;                  ///< False until a run() has swept.
    std::uint64_t cycles_simulated = 0;  ///< Cycles advanced, summed over segments.
    std::uint64_t op_block_evals = 0;    ///< Ops evaluated times lane blocks.
    double wall_seconds = 0.0;           ///< Wall time of the sweep.
  };
  [[nodiscard]] LinkSweepStats link_sweep() const;

 private:
  /// The hold links, swept on `pool` by the first caller: memoized behind a
  /// std::call_once, never computed in the constructor.
  const sim::HoldLinks& hold_links(util::ThreadPool& pool) const;

  struct LinkMemo {
    std::once_flag once;
    sim::HoldLinks links;
    LinkSweepStats stats;
    std::atomic<bool> swept{false};  ///< Publishes `stats` to link_sweep().
    std::exception_ptr error;        ///< What the sweep threw, rethrown per call.
  };

  const netlist::Netlist* nl_;
  const sim::Testbench* tb_;
  sim::CompiledStimulus stimulus_;
  sim::GoldenResult golden_;
  sim::GoldenCheckpoints checkpoints_;
  std::unique_ptr<LinkMemo> links_ = std::make_unique<LinkMemo>();
};

}  // namespace ffr::fault
