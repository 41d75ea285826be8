#include "common/zipf.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace bdisk {

ZipfDistribution::ZipfDistribution(std::size_t n, double theta) {
  BDISK_CHECK(n > 0 && n <= (std::size_t{1} << 29));
  probs_.resize(n);
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    probs_[i] = 1.0 / std::pow(static_cast<double>(i + 1), theta);
    norm += probs_[i];
  }
  cumulative_.resize(n);
  double running = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    probs_[i] /= norm;
    running += probs_[i];
    cumulative_[i] = running;
  }
  cumulative_.back() = 1.0;

  // Bucket j of B covers [j / B, (j + 1) / B); both edges are exact doubles
  // (B is a power of two). The answer is monotone in u, so every u of the
  // bucket answers in [answer at j / B, answer at (j + 1) / B], and the
  // cap bounds the last bucket's by n - 1.
  const std::size_t buckets = std::bit_ceil(4 * n);
  guide_buckets_ = static_cast<double>(buckets);
  guide_.resize(buckets);
  const auto answer_at = [&](std::size_t j) -> std::size_t {
    if (j == buckets) return n - 1;
    return static_cast<std::size_t>(
        std::upper_bound(cumulative_.begin(), cumulative_.end(),
                         static_cast<double>(j) / guide_buckets_) -
        cumulative_.begin());
  };
  std::size_t lo = answer_at(0);
  for (std::size_t j = 0; j < buckets; ++j) {
    const std::size_t hi = answer_at(j + 1);
    guide_[j] = static_cast<std::uint32_t>(lo) | (hi - lo > 1 ? kScan : 0);
    lo = hi;
  }
}

}  // namespace bdisk
