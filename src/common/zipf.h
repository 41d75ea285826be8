/// \file zipf.h
/// \brief Zipf-skewed access distribution — the workload primitive behind
/// client caches, demand drift, and every skewed-popularity experiment.

#ifndef BDISK_COMMON_ZIPF_H_
#define BDISK_COMMON_ZIPF_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bdisk {

/// \brief Zipf(theta) access distribution over `n` items: item i has
/// probability proportional to 1 / (i + 1)^theta.
class ZipfDistribution {
 public:
  /// `n` must be in [1, 2^29].
  ZipfDistribution(std::size_t n, double theta);

  /// Access probability of item i.
  double ProbabilityOf(std::size_t i) const { return probs_[i]; }

  /// All item probabilities, by item index.
  const std::vector<double>& Probabilities() const { return probs_; }

  /// Samples an item given a uniform double u in [0, 1): the first item
  /// whose cumulative probability exceeds u (std::upper_bound's answer),
  /// capped at the last item. Any double is accepted; NaN and u >= 1 map to
  /// the last item. O(1) for u in [+0, 1): a guide table (Chen & Asau
  /// 1974) splits [0, 1) into bit_ceil(4n) equal buckets, each holding the
  /// answer at its left edge, so u's answer is that entry or, when no more
  /// than one cumulative boundary falls inside the bucket, one branch-free
  /// step past it; a bucket holding more boundaries is scanned. Any other
  /// u has a constant answer: item 0 below 1 (the first cumulative
  /// probability is positive), the last item otherwise.
  std::size_t Sample(double u) const {
    // One compare: the bits of the doubles in [+0, 1) are exactly the
    // integers below 1.0's; -0.0, negatives, NaN and u >= 1 are not.
    if (std::bit_cast<std::uint64_t>(u) >= std::bit_cast<std::uint64_t>(1.0))
        [[unlikely]] {
      return u < 1.0 ? 0 : probs_.size() - 1;
    }
    // u * buckets is exact (a power of two, at most 2^31), so u lies in
    // its bucket.
    const std::uint32_t entry =
        guide_[static_cast<std::uint32_t>(u * guide_buckets_)];
    std::size_t i = entry & kIndexMask;
    if ((entry & kScan) != 0) [[unlikely]] {
      while (!(u < cumulative_[i])) ++i;
      return i;
    }
    return i + (u < cumulative_[i] ? 0 : 1);
  }

 private:
  /// A guide entry: the answer at its bucket's left edge, with kScan set
  /// when the bucket holds more than one cumulative boundary.
  static constexpr std::uint32_t kScan = 1U << 31;
  static constexpr std::uint32_t kIndexMask = kScan - 1;

  std::vector<double> probs_;
  std::vector<double> cumulative_;
  std::vector<std::uint32_t> guide_;
  double guide_buckets_ = 0.0;  // guide_.size(), a power of two.
};

}  // namespace bdisk

#endif  // BDISK_COMMON_ZIPF_H_
