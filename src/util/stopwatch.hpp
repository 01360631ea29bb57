#pragma once
// Wall-clock stopwatch for harness timing reports.

#include <chrono>

namespace ffr::util {

class Stopwatch {
 public:
  Stopwatch() noexcept : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  [[nodiscard]] double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ffr::util
