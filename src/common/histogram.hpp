// Deterministic fixed-bucket histogram: the simulator's one latency
// distribution type.
//
// Buckets are fixed at construction: a configurable width and count plus
// an overflow bucket whose percentile representative is the exact maximum,
// so saturated load points still report a meaningful p999. The default
// geometry (16 cycles x 4096 buckets ~ 27 us) covers the open-loop service
// range; width-1 buckets give exact cycle percentiles (the DRAM read and
// L2-miss histograms use 1 x 16384 ~ 6.8 us). Values are integers, and
// merge() is associative and commutative — per-tenant or per-controller
// histograms can be combined into per-core or fleet-wide views in any
// order with identical results, which the svc/* determinism contract
// relies on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace coaxial {

class FixedHistogram {
 public:
  /// `bucket_width` and `buckets` define the covered range
  /// [0, bucket_width * buckets); larger values land in the overflow
  /// bucket. Both must be nonzero.
  explicit FixedHistogram(std::uint64_t bucket_width = 16, std::size_t buckets = 4096)
      : width_(bucket_width), bins_(buckets, 0) {
    if (bucket_width == 0 || buckets == 0) {
      throw std::invalid_argument("FixedHistogram: bucket_width and buckets must be > 0");
    }
  }

  void add(std::uint64_t value) {
    const std::uint64_t idx = value / width_;
    if (idx < bins_.size()) {
      ++bins_[idx];
    } else {
      ++overflow_;
    }
    sum_ += value;
    max_ = std::max(max_, value);
    ++count_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t overflow_count() const { return overflow_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return count_ == 0 ? 0 : max_; }
  std::uint64_t bucket_width() const { return width_; }
  std::size_t buckets() const { return bins_.size(); }

  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Value at quantile q in [0, 1]: the lower edge of the bucket holding
  /// the rank-`floor(q*(count-1))+1` sample (exact for width-1 buckets;
  /// at most one bucket width below the true value otherwise). The
  /// overflow bucket reports the exact maximum, so q -> 1 never
  /// understates a saturated tail.
  std::uint64_t percentile(double q) const {
    if (count_ == 0) return 0;
    const std::uint64_t target =
        static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      cumulative += bins_[i];
      if (cumulative >= target) return static_cast<std::uint64_t>(i) * width_;
    }
    return max_;  // Target rank lies in the overflow bucket.
  }

  /// True when `other` has the same bucket geometry (merge precondition).
  bool same_shape(const FixedHistogram& other) const {
    return width_ == other.width_ && bins_.size() == other.bins_.size();
  }

  /// Accumulate `other` into this histogram. Associative and commutative:
  /// any merge tree over the same multiset of samples yields identical
  /// state. Throws std::invalid_argument on shape mismatch.
  void merge(const FixedHistogram& other) {
    if (!same_shape(other)) {
      throw std::invalid_argument("FixedHistogram::merge: bucket shapes differ");
    }
    for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
    overflow_ += other.overflow_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
  }

  void reset() {
    std::fill(bins_.begin(), bins_.end(), 0);
    overflow_ = 0;
    sum_ = 0;
    max_ = 0;
    count_ = 0;
  }

 private:
  std::uint64_t width_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t overflow_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t count_ = 0;
};

}  // namespace coaxial
