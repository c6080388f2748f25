// Wall-clock stopwatch for code that times itself: the service's job and
// stage telemetry, the examples and the bench harnesses.
#pragma once

#include <chrono>

namespace crowdrank {

/// Monotonic stopwatch. start() on construction; elapsed_*() reads without
/// stopping, restart() resets the origin.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_millis() const { return elapsed_seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace crowdrank
