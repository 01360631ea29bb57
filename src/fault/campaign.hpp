#pragma once
/// \file campaign.hpp
/// \brief Flat statistical fault-injection (SFI) campaign (paper §IV-A).
///
/// For every flip-flop, N single-event upsets are injected at random cycles
/// inside the testbench's active window; each run is classified against the
/// golden frame stream and the Functional De-Rating factor is
/// failures / injections.
///
/// Injections are packed 64 per simulation pass (one lane per injection
/// time), so a full 947-FF x 170-injection campaign costs ~3 passes per
/// flip-flop. The batched CampaignEngine (fault/engine.hpp) additionally
/// packs lanes across flip-flops, reuses the golden run and resumes each
/// pass from a golden checkpoint with dirty-set evaluation; run_campaign()
/// replays every pass from reset with a full sweep and remains the simple
/// reference implementation the engine is differentially tested against.

#include <cstdint>
#include <string>
#include <vector>

#include "fault/classification.hpp"
#include "netlist/netlist.hpp"
#include "sim/lane_block.hpp"
#include "sim/runner.hpp"

namespace ffr::fault {

/// One shard of a k-of-N campaign. The batched CampaignEngine plans the
/// full campaign's pass schedule exactly as if it were unsharded and then
/// runs only the passes this shard owns. Ownership is dealt in schedule
/// order: each pass goes to the shard with the least estimated work so far
/// (ties to the lowest index), estimating a pass as its lane blocks times
/// the cycles from its restore checkpoint to the end of the testbench, so
/// the expensive early-injection passes and the narrow tail pass spread
/// evenly; on equal estimates this is round-robin. A pass's real cost also
/// depends on how long its lanes stay off golden, which no schedule-only
/// rule can see, so balance holds only statistically (better with more
/// passes per shard). Because every pass's science output and
/// deterministic cost counters are independent of which other passes run
/// alongside it,
/// merge_partials() (fault/shard.hpp) over all N shards reconstructs the
/// unsharded CampaignResult bit-identically. The flat run_campaign() ignores the
/// shard spec (it is the unsharded differential reference).
struct ShardSpec {
  std::size_t index = 0;  ///< This shard's id in [0, count).
  std::size_t count = 1;  ///< Total shards; 1 = unsharded.

  [[nodiscard]] bool operator==(const ShardSpec&) const = default;
};

/// Tunables of one campaign; defaults reproduce the paper's setting.
struct CampaignConfig {
  /// Single-event upsets injected per flip-flop (paper: 170).
  std::size_t injections_per_ff = 170;
  /// Seed for the per-flip-flop injection-cycle schedules.
  std::uint64_t seed = 0xFA57;
  /// Worker threads; 0 = hardware concurrency.
  std::size_t num_threads = 0;
  /// SIMD lane-block width of each batched-engine pass: kAuto picks the
  /// widest block the host CPU natively supports (CPUID-dispatched), k64 is
  /// the scalar reference width, k256/k512 request LaneBlock<4>/<8> passes.
  /// A request wider than the host supports falls back to the native width
  /// with a warning recorded in CampaignResult::warnings — never an error.
  /// Pure cost knob: results are bit-identical at every width. Ignored by
  /// the flat run_campaign() (always 64 lanes — the differential reference).
  sim::LaneWidth lane_width = sim::LaneWidth::kAuto;
  /// Lane blocks the batched engine sweeps per simulation pass, multiplying
  /// the pass capacity to lane_width * blocks_per_pass fault lanes (e.g.
  /// 2 x 512 = 1024). 0 = auto: 1 on the resolved 64-lane reference path,
  /// otherwise the largest block count whose per-net state footprint fits a
  /// fixed cache budget (deterministic — no host probing, so schedules and
  /// counters are machine-independent). Explicit values are clamped to
  /// [1, sim::kMaxLaneBlocksPerPass] with a warning. Pure cost knob: results
  /// are bit-identical at every block count. Ignored by run_campaign().
  std::size_t blocks_per_pass = 0;
  /// Restrict the campaign to these flip-flop indices (positions within
  /// Netlist::flip_flops()). Empty = all flip-flops.
  std::vector<std::size_t> ff_subset;
  /// k-of-N shard of the batched engine's pass schedule (see ShardSpec).
  /// The engine rejects index >= count or count == 0 with
  /// std::invalid_argument. Ignored by the flat run_campaign().
  ShardSpec shard;
};

/// Campaign outcome for one flip-flop.
struct FfResult {
  std::size_t ff_index = 0;  ///< Position within Netlist::flip_flops().
  std::string name;          ///< Cell name of the flip-flop.
  /// Upsets injected into this flip-flop — config.injections_per_ff in a
  /// full campaign; in a sharded engine run, only this shard's share (the
  /// shares sum back to injections_per_ff under merge_partials()).
  std::uint64_t injections = 0;
  ClassCounts classes;           ///< Per-fault-class outcome counts.

  /// \return Functional De-Rating factor: failures / injections
  ///         (0 when nothing was injected).
  [[nodiscard]] double fdr() const noexcept {
    return injections == 0
               ? 0.0
               : static_cast<double>(classes.failures()) /
                     static_cast<double>(injections);
  }
};

/// One row of the batched engine's pass schedule: `passes` passes
/// ran as `blocks` SIMD lane blocks of `width` fault lanes each.
struct PassShapeCount {
  std::size_t width = sim::kNumLanes;  ///< Fault lanes per block (64/256/512).
  std::size_t blocks = 1;              ///< Lane blocks swept per pass.
  std::uint64_t passes = 0;            ///< Passes run at this shape.

  /// Fault-lane capacity of one pass at this shape.
  [[nodiscard]] std::size_t lanes() const noexcept { return width * blocks; }
};

/// Aggregate campaign outcome: per-flip-flop results plus cost accounting.
struct CampaignResult {
  std::vector<FfResult> per_ff;        ///< One entry per targeted flip-flop.
  std::uint64_t total_injections = 0;  ///< Upsets injected overall.
  /// Of total_injections, the upsets the batched engine answered kOk
  /// without simulating them: their flip-flop lies outside the testbench's
  /// sim::ObservableCone, or their chain of hold links ends in a masked
  /// cycle (sim::HoldLinks), so they can never reach the interface. Counted
  /// by shard 0 of a sharded run; 0 from the flat run_campaign(), which
  /// simulates every upset.
  std::uint64_t proven_injections = 0;
  /// Of total_injections, the upsets the batched engine answered with
  /// another upset's lane: the hold links chain them to the same
  /// representative upset (fault/engine.hpp), which is simulated once.
  /// Counted by the shard that owns the representative's pass; 0 from the
  /// flat run_campaign().
  std::uint64_t collapsed_injections = 0;
  /// Simulator passes used. In the batched engine every pass but the last
  /// carries `lanes_per_pass` fault lanes, so an unsharded run takes exactly
  /// ceil((total_injections - proven_injections - collapsed_injections) /
  /// lanes_per_pass) passes.
  std::uint64_t total_sim_passes = 0;
  /// Fault-lane capacity of a full-shape engine pass: the resolved
  /// CampaignConfig lane_width (after any fallback) times the resolved
  /// blocks_per_pass. 64 on the scalar reference path.
  std::size_t lanes_per_pass = sim::kNumLanes;
  /// Lane blocks per full-shape pass after auto-resolution/clamping.
  std::size_t blocks_per_pass = 1;
  /// The engine's pass schedule: how many passes ran at each (width,
  /// blocks) shape, most blocks first. At most two rows, both at the
  /// resolved lane width: the full shape and the tail pass's block count.
  /// Sums to total_sim_passes. The flat run_campaign() reports its single
  /// 64x1 shape here.
  std::vector<PassShapeCount> pass_histogram;
  /// Non-fatal configuration diagnostics, e.g. a lane_width request wider
  /// than the host supports that fell back to the native width.
  std::vector<std::string> warnings;
  /// Clock cycles actually advanced across all passes — in the engine this
  /// is the post-restore suffix only, so it measures the checkpoint saving
  /// against passes * testbench_length.
  std::uint64_t cycles_simulated = 0;
  /// Individual gate evaluations across all passes; dirty-set evaluation
  /// shrinks this without changing cycles_simulated.
  std::uint64_t ops_evaluated = 0;
  /// ops_evaluated weighted by the lane blocks each pass sweeps: the gate
  /// work wall time follows across pass shapes. 0 from the flat
  /// run_campaign() oracle.
  std::uint64_t op_block_evals = 0;
  /// Flip-flop block captures by the simulators' clock edges. The wide
  /// kernel ticks only FFs whose D or Q changed, the 64-lane scalar path
  /// ticks all of them every cycle. 0 from the flat run_campaign() oracle.
  std::uint64_t ff_block_ticks = 0;
  /// Passes that resumed from a checkpoint later than cycle 0.
  std::uint64_t checkpoint_restores = 0;
  /// Bytes held by the golden checkpoint set used by this campaign (the
  /// bit-packed sim::GoldenCheckpoints representation; 0 in the flat
  /// campaign, which replays from reset).
  std::size_t checkpoint_bytes = 0;
  /// Campaign wall-clock time, including the engine's one hold-link sweep
  /// when this run was the engine's first (CampaignEngine::link_sweep()).
  double wall_seconds = 0.0;

  /// FDR values in per_ff order.
  [[nodiscard]] std::vector<double> fdr_vector() const;

  /// Circuit-level average FDR (unweighted over flip-flops).
  [[nodiscard]] double mean_fdr() const;
};

/// The deterministic injection-cycle schedule for one flip-flop: cycles
/// drawn from the testbench's [inject_begin, inject_end) window, seeded by
/// (config.seed, ff_index) only — independent of subset order, threading
/// and batching. Shared by the flat campaign and the batched CampaignEngine;
/// their bit-exact equivalence rests on this function.
[[nodiscard]] std::vector<std::size_t> injection_cycles(const CampaignConfig& config,
                                                        const sim::Testbench& tb,
                                                        std::size_t ff_index);

/// Resolves config.ff_subset against a census of `num_ffs` flip-flops:
/// empty means all; out-of-range indices throw std::out_of_range.
[[nodiscard]] std::vector<std::size_t> resolve_ff_subset(const CampaignConfig& config,
                                                         std::size_t num_ffs);

/// Runs the campaign.
///
/// \param nl     Finalized netlist whose flip-flops are targeted.
/// \param tb     Testbench providing stimulus and the injection window.
/// \param golden Golden run of the SAME testbench on the SAME netlist;
///               fault runs are classified against its frame stream.
/// \param config Campaign tunables (injection count, seed, threads, subset).
/// \return Per-flip-flop FDR measurements plus cost accounting.
[[nodiscard]] CampaignResult run_campaign(const netlist::Netlist& nl,
                                          const sim::Testbench& tb,
                                          const sim::GoldenResult& golden,
                                          const CampaignConfig& config = {});

}  // namespace ffr::fault
