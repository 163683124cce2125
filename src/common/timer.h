// Wall-clock timing for the experiment harness.

#pragma once

#include <chrono>

namespace tbf {

/// \brief Monotonic stopwatch. Starts on construction; Restart() resets.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace tbf
