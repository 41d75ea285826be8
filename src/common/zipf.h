/// \file zipf.h
/// \brief Zipf-skewed access distribution — the workload primitive behind
/// client caches, demand drift, and every skewed-popularity experiment.

#ifndef BDISK_COMMON_ZIPF_H_
#define BDISK_COMMON_ZIPF_H_

#include <cstddef>
#include <vector>

namespace bdisk {

/// \brief Zipf(theta) access distribution over `n` items: item i has
/// probability proportional to 1 / (i + 1)^theta.
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double theta);

  /// Access probability of item i.
  double ProbabilityOf(std::size_t i) const { return probs_[i]; }

  /// All item probabilities, by item index.
  const std::vector<double>& Probabilities() const { return probs_; }

  /// Samples an item given a uniform double u in [0, 1): the first item
  /// whose cumulative probability exceeds u (std::upper_bound's answer),
  /// capped at the last item. Any double is accepted; NaN and u >= 1 map to
  /// the last item. A branch-free binary search, O(log n).
  std::size_t Sample(double u) const;

 private:
  std::vector<double> probs_;
  std::vector<double> cumulative_;
};

}  // namespace bdisk

#endif  // BDISK_COMMON_ZIPF_H_
