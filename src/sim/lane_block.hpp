#pragma once
/// \file lane_block.hpp
/// \brief SIMD lane blocks for the wide fault simulator: a LaneBlock<W> bundles
/// W 64-bit lane words (W in {1, 4, 8} -> 64 / 256 / 512 fault lanes) into
/// one value the bitwise gate kernels operate on. The storage is a GCC/Clang
/// vector-extension type (`__attribute__((vector_size)))`), so a single
/// gate evaluation over a block compiles to AVX2 (W=4) or AVX-512 (W=8)
/// instructions where the build architecture allows, and to narrower
/// register sequences otherwise — semantics never depend on the ISA.
///
/// Which block width a campaign actually runs at is a runtime decision:
/// native_lane_width() probes the CPU once (CPUID via
/// __builtin_cpu_supports) and the engine resolves a CampaignConfig
/// lane-width request against it with resolve_lane_width() — requests wider
/// than the host supports fall back to the widest native block with a
/// recorded warning instead of failing. Tests pin the decision with
/// force_native_lane_width_for_testing() to exercise every path on any
/// host.
///
/// ABI note: LaneBlock values are only ever passed across translation-unit
/// boundaries by reference (see WideSimulator / WideReplayRunner), so the
/// vector-argument ABI of the build architecture never leaks into the
/// public interface.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace ffr::sim {

namespace detail {
/// Vector-extension storage for W lane words. The W == 1 specialization is a
/// plain scalar word: GCC collapses one-element vectors to the element type
/// anyway, and a genuinely scalar W == 1 keeps the wide and 64-bit code
/// paths structurally identical.
template <std::size_t W>
struct LaneVec {
  typedef std::uint64_t type
      __attribute__((vector_size(sizeof(std::uint64_t) * W)));
};
template <>
struct LaneVec<1> {
  using type = std::uint64_t;
};
}  // namespace detail

/// W 64-bit lane words evaluated as one SIMD value; lane L lives in word
/// L / 64, bit L % 64.
template <std::size_t W>
struct LaneBlock {
  static_assert(W == 1 || W == 4 || W == 8, "LaneBlock: W must be 1, 4 or 8");
  using Word = std::uint64_t;
  static constexpr std::size_t kWords = W;
  static constexpr std::size_t kLanes = W * 64;

  using Vec = typename detail::LaneVec<W>::type;
  Vec v;

  [[nodiscard]] Word word(std::size_t i) const noexcept {
    if constexpr (W == 1) {
      (void)i;
      return v;
    } else {
      return v[i];
    }
  }
  void set_word(std::size_t i, Word word) noexcept {
    if constexpr (W == 1) {
      (void)i;
      v = word;
    } else {
      v[i] = word;
    }
  }

  /// All lanes of every word set to `word` (e.g. a broadcast golden word).
  [[nodiscard]] static LaneBlock splat(Word word) noexcept {
    LaneBlock block;
    for (std::size_t i = 0; i < W; ++i) block.set_word(i, word);
    return block;
  }
  [[nodiscard]] static LaneBlock zero() noexcept { return splat(0); }
  [[nodiscard]] static LaneBlock ones() noexcept { return splat(~Word{0}); }
  /// Single-lane mask: bit `lane` (< kLanes) set, everything else clear.
  [[nodiscard]] static LaneBlock lane_mask(std::size_t lane) noexcept {
    LaneBlock block = zero();
    block.set_word(lane / 64, Word{1} << (lane % 64));
    return block;
  }

  [[nodiscard]] bool lane(std::size_t lane) const noexcept {
    return ((word(lane / 64) >> (lane % 64)) & 1u) != 0;
  }

  /// True when any bit differs between the two blocks (the block analogue of
  /// a word `a != b`, as used by the dirty checks; written as an
  /// OR-reduction so the compiler keeps it branch-free and vectorized).
  [[nodiscard]] friend bool differs(const LaneBlock& a, const LaneBlock& b) noexcept {
    Word acc = 0;
    for (std::size_t i = 0; i < W; ++i) acc |= a.word(i) ^ b.word(i);
    return acc != 0;
  }
  /// True when any bit is set.
  [[nodiscard]] friend bool any(const LaneBlock& a) noexcept {
    Word acc = 0;
    for (std::size_t i = 0; i < W; ++i) acc |= a.word(i);
    return acc != 0;
  }

  [[nodiscard]] friend LaneBlock operator~(const LaneBlock& a) noexcept {
    return LaneBlock{~a.v};
  }
  [[nodiscard]] friend LaneBlock operator&(const LaneBlock& a,
                                           const LaneBlock& b) noexcept {
    return LaneBlock{a.v & b.v};
  }
  [[nodiscard]] friend LaneBlock operator|(const LaneBlock& a,
                                           const LaneBlock& b) noexcept {
    return LaneBlock{a.v | b.v};
  }
  [[nodiscard]] friend LaneBlock operator^(const LaneBlock& a,
                                           const LaneBlock& b) noexcept {
    return LaneBlock{a.v ^ b.v};
  }
  LaneBlock& operator^=(const LaneBlock& b) noexcept {
    v ^= b.v;
    return *this;
  }
  LaneBlock& operator|=(const LaneBlock& b) noexcept {
    v |= b.v;
    return *this;
  }
};

/// Upper bound on lane blocks a WideSimulator sweeps per pass: large enough
/// that per-pass state streams past any useful L1/L2 footprint budget.
inline constexpr std::size_t kMaxLaneBlocksPerPass = 8;

/// Lane-block width of a campaign pass. The numeric value is the lane count.
enum class LaneWidth : std::uint16_t {
  kAuto = 0,  ///< Widest block the host CPU natively supports.
  k64 = 64,   ///< Scalar 64-bit path (the differential reference width).
  k256 = 256, ///< LaneBlock<4>: AVX2-sized blocks.
  k512 = 512, ///< LaneBlock<8>: AVX-512-sized blocks.
};

/// Lanes per pass of a width; 0 for kAuto.
[[nodiscard]] constexpr std::size_t lanes_of(LaneWidth width) noexcept {
  return static_cast<std::size_t>(width);
}

/// Calls `body` with std::integral_constant<std::size_t, W> for the block
/// width W of a resolved lane width (k64 -> 1, k256 -> 4, k512 -> 8): the one
/// dispatch from a runtime lane width to the kernels compiled per W.
/// \throws std::invalid_argument on kAuto, which must be resolved first.
template <typename Body>
void at_block_width(LaneWidth width, Body&& body) {
  switch (width) {
    case LaneWidth::k64:
      body(std::integral_constant<std::size_t, 1>{});
      return;
    case LaneWidth::k256:
      body(std::integral_constant<std::size_t, 4>{});
      return;
    case LaneWidth::k512:
      body(std::integral_constant<std::size_t, 8>{});
      return;
    case LaneWidth::kAuto:
      break;
  }
  throw std::invalid_argument("at_block_width: resolve the lane width first");
}

[[nodiscard]] constexpr const char* to_string(LaneWidth width) noexcept {
  switch (width) {
    case LaneWidth::kAuto: return "auto";
    case LaneWidth::k64: return "64";
    case LaneWidth::k256: return "256";
    case LaneWidth::k512: return "512";
  }
  return "?";
}

/// Widest lane block the host CPU runs at native SIMD width: k512 with
/// AVX-512F, k256 with AVX2, k64 otherwise (and on non-x86 builds). Probed
/// once via CPUID and cached; an active testing override takes precedence.
[[nodiscard]] LaneWidth native_lane_width() noexcept;

/// Overrides native_lane_width() for tests (forced dispatch), so fallback
/// behaviour and every block width can be exercised deterministically on any
/// host. Pass kAuto to restore real CPU detection. Affects subsequent
/// resolve_lane_width() calls process-wide; not thread-safe against
/// concurrently running campaigns — set it from test setup only.
void force_native_lane_width_for_testing(LaneWidth width) noexcept;

/// Outcome of resolving a requested lane width against the host.
struct ResolvedLaneWidth {
  LaneWidth width = LaneWidth::k64;  ///< Width the campaign will run at.
  std::string warning;  ///< Non-empty when the request fell back to native.
};

/// kAuto resolves to native_lane_width(); an explicit request no wider than
/// native is honoured; a request wider than the host supports falls back to
/// the native width with a human-readable warning (never an error — the
/// result is bit-identical at every width, only the cost changes).
[[nodiscard]] ResolvedLaneWidth resolve_lane_width(LaneWidth requested);

}  // namespace ffr::sim
