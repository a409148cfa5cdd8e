// Wall-clock stopwatch on the tracer's clock (trace::now_ns), so timings and
// trace spans read one clock.
#pragma once

#include <cstdint>

#include "util/trace.hpp"

namespace fghp {

/// Monotonic wall-clock stopwatch. start() on construction; seconds() reads
/// the elapsed time without stopping.
class WallTimer {
 public:
  WallTimer() { reset(); }

  /// Restarts the stopwatch.
  void reset() { startNs_ = trace::now_ns(); }

  /// Elapsed seconds since construction / last reset().
  double seconds() const { return static_cast<double>(trace::now_ns() - startNs_) / 1e9; }

  /// Elapsed milliseconds since construction / last reset().
  double millis() const { return seconds() * 1e3; }

 private:
  std::uint64_t startNs_ = 0;
};

}  // namespace fghp
