// Statistics helpers: an epoch rate estimator and geometric-mean
// aggregation. Latency distributions live in common/histogram.hpp.
#pragma once

#include <vector>

#include "common/units.hpp"

namespace coaxial {

/// Epoch-based rate estimator: events per cycle over a sliding epoch.
/// Used by CALM to estimate filtered/unfiltered memory bandwidth demand.
class EpochRate {
 public:
  explicit EpochRate(Cycle epoch_length = 4096) : epoch_(epoch_length) {}

  void record(Cycle now, double amount = 1.0) {
    roll(now);
    current_ += amount;
  }

  /// Rate in events (or bytes) per cycle, from the last completed epoch.
  double rate(Cycle now) {
    roll(now);
    return last_rate_;
  }

 private:
  void roll(Cycle now) {
    while (now >= epoch_start_ + epoch_) {
      last_rate_ = current_ / static_cast<double>(epoch_);
      current_ = 0.0;
      epoch_start_ += epoch_;
    }
  }

  Cycle epoch_;
  Cycle epoch_start_ = 0;
  double current_ = 0.0;
  double last_rate_ = 0.0;
};

/// Geometric mean helper for speedup aggregation (paper reports geomeans).
double geomean(const std::vector<double>& xs);

}  // namespace coaxial
