#include "adaptive/demand_estimator.h"

#include "common/check.h"

namespace bdisk::adaptive {

DemandEstimator::DemandEstimator(std::size_t file_count, double decay)
    : decay_(decay),
      interval_counts_(file_count, 0),
      decayed_(file_count, 0.0) {
  BDISK_CHECK(file_count > 0);
  BDISK_CHECK(decay >= 0.0 && decay < 1.0);
}

void DemandEstimator::ObserveCounts(const std::vector<std::uint64_t>& counts) {
  BDISK_CHECK(counts.size() == interval_counts_.size());
  for (std::size_t f = 0; f < counts.size(); ++f) {
    interval_counts_[f] += counts[f];
    total_observed_ += counts[f];
  }
}

void DemandEstimator::FoldInterval() {
  for (std::size_t f = 0; f < decayed_.size(); ++f) {
    decayed_[f] = decayed_[f] * decay_ +
                  static_cast<double>(interval_counts_[f]);
    interval_counts_[f] = 0;
  }
}

std::vector<double> DemandEstimator::Shares() const {
  const std::size_t n = decayed_.size();
  // The uniform floor: a file with zero observed demand still receives the
  // weight of one request per file-count, keeping sqrt-rule frequencies
  // positive.
  std::vector<double> shares(n, 0.0);
  double total = 0.0;
  for (std::size_t f = 0; f < n; ++f) {
    shares[f] = decayed_[f] + static_cast<double>(interval_counts_[f]) +
                1.0 / static_cast<double>(n);
    total += shares[f];
  }
  for (double& s : shares) s /= total;
  return shares;
}

}  // namespace bdisk::adaptive
