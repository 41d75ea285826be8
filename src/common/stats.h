/// \file stats.h
/// \brief Small online-statistics helpers used by the simulator and benches.

#ifndef BDISK_COMMON_STATS_H_
#define BDISK_COMMON_STATS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"

namespace bdisk {

/// \brief Streaming mean/variance/min/max accumulator over raw moments
/// (count, sum, sum of squares).
///
/// Moment sums make Merge() *exactly* order-independent: whenever every
/// observation and every partial sum is exactly representable as a double
/// (e.g. integer-valued latencies with sums below 2^53, which covers all
/// simulator metrics), any partition of a sample stream into
/// sub-accumulators followed by merging reproduces the single-pass
/// accumulation bit for bit, regardless of the partition or the merge
/// order. The sharded simulator relies on this to keep parallel results
/// identical to the serial path (docs/ARCHITECTURE.md, determinism
/// contract). The trade-off versus Welford's algorithm is cancellation for
/// huge means with tiny spread, which slot-valued metrics never hit.
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x) {
    ++count_;
    sum_ += x;
    sumsq_ += x * x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Number of observations so far.
  std::uint64_t count() const { return count_; }
  /// Sum of observations (0 when empty).
  double sum() const { return sum_; }
  /// Mean (0 when empty).
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Population variance (0 with < 2 observations).
  double variance() const;
  /// Smallest observation (+inf when empty).
  double min() const { return min_; }
  /// Largest observation (-inf when empty).
  double max() const { return max_; }

  /// Merges another accumulator into this one. Exactly order-independent
  /// for exactly-representable observations (see class comment).
  void Merge(const RunningStats& other);

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double sumsq_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// \brief Greatest common divisor of two positive integers.
std::uint64_t Gcd(std::uint64_t a, std::uint64_t b);

/// \brief Least common multiple, saturating at `cap` (default: no overflow
/// past 2^62; returns cap if the true lcm would exceed it).
std::uint64_t LcmCapped(std::uint64_t a, std::uint64_t b,
                        std::uint64_t cap = (1ULL << 62));

}  // namespace bdisk

#endif  // BDISK_COMMON_STATS_H_
