#include "common/zipf.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace bdisk {

ZipfDistribution::ZipfDistribution(std::size_t n, double theta) {
  BDISK_CHECK(n > 0);
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
}

std::size_t ZipfDistribution::Sample(double u) const {
  // std::upper_bound over the cumulative table, with std::upper_bound's own
  // comparison (u < c[i]), but each halving picks its half with a
  // conditional select instead of a data-dependent branch. The answer stays
  // in [first, first + len] throughout; NaN compares false everywhere and
  // lands past the end, as in std::upper_bound.
  const double* first = cumulative_.data();
  std::size_t len = cumulative_.size();
  while (len > 1) {
    const std::size_t half = len / 2;
    first = u < first[half] ? first : first + half;
    len -= half;
  }
  const std::size_t index =
      static_cast<std::size_t>(first - cumulative_.data()) +
      (u < *first ? 0 : 1);
  return std::min(index, probs_.size() - 1);
}

}  // namespace bdisk
