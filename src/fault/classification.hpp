#pragma once
/// \file classification.hpp
/// \brief Failure classification for fault-injection runs: compares the frame stream
/// observed at the packet interface against the golden reference and assigns
/// one of the paper's fault classes. The Functional De-Rating criterion
/// (§IV-A) counts a run as a functional failure "when the final received
/// packages contained payload corruption or the circuit stopped sending or
/// receiving data"; every class except kOk meets it.

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/testbench.hpp"

namespace ffr::fault {

enum class FailureClass : std::uint8_t {
  kOk = 0,             // frame stream identical to golden (timing ignored)
  kFrameLoss,          // fewer frames delivered (stopped sending/receiving)
  kSpuriousFrame,      // more frames than golden (phantom traffic)
  kPayloadCorruption,  // silent data corruption: bytes differ, no error flag
  kDetectedError,      // frame flagged bad by the hardware (dropped at user)
  kNumClasses,
};

inline constexpr std::size_t kNumFailureClasses =
    static_cast<std::size_t>(FailureClass::kNumClasses);

[[nodiscard]] std::string_view to_string(FailureClass cls) noexcept;

[[nodiscard]] constexpr bool is_functional_failure(FailureClass cls) noexcept {
  return cls != FailureClass::kOk;
}

/// Classify one lane's observed frames against the golden frames.
[[nodiscard]] FailureClass classify(const sim::FrameList& golden,
                                    const sim::FrameList& observed);

/// classify() of the stream golden[0, prefix) followed by `suffix` — a fault
/// lane that delivered the first `prefix` golden frames before it left
/// golden (sim::RunResult::lane_golden_prefix) — without building it.
/// Precondition: prefix <= golden.size().
[[nodiscard]] FailureClass classify(const sim::FrameList& golden,
                                    std::size_t prefix,
                                    const sim::FrameList& suffix);

/// Per-class tally.
struct ClassCounts {
  std::array<std::uint64_t, kNumFailureClasses> counts{};

  /// Counts `n` outcomes of class `cls`.
  void add(FailureClass cls, std::uint64_t n = 1) noexcept {
    counts[static_cast<std::size_t>(cls)] += n;
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto c : counts) sum += c;
    return sum;
  }
  [[nodiscard]] std::uint64_t failures() const noexcept {
    return total() - counts[0];
  }
};

}  // namespace ffr::fault
