/// \file demand_estimator.h
/// \brief Online per-file demand estimation with exponential decay.
///
/// The adaptation loop's sensor: the broadcast operator cannot observe
/// clients directly (the channel is one-way), but it can observe the
/// *request stream* that reaches it out of band — subscription changes,
/// uplinked telemetry, or, in simulation, the generated workload trace.
/// The estimator folds per-file request counts into exponentially decayed
/// frequency estimates, balancing reactivity to drift against noise
/// immunity.
///
/// Determinism: within an interval counts accumulate in integers (exactly
/// order-independent); decay multiplies by a fixed factor once per
/// interval. For a given observation sequence the estimate is a pure
/// function of the inputs — no clock, no RNG.

#ifndef BDISK_ADAPTIVE_DEMAND_ESTIMATOR_H_
#define BDISK_ADAPTIVE_DEMAND_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bdisk::adaptive {

/// \brief Decayed per-file request-frequency estimator.
class DemandEstimator {
 public:
  /// \param file_count number of files tracked.
  /// \param decay      multiplier applied to history at each FoldInterval
  ///                   (0 = only the last interval matters, values close
  ///                   to 1 = long memory). Must be in [0, 1).
  DemandEstimator(std::size_t file_count, double decay);

  /// Records a whole interval's per-file counts at once.
  void ObserveCounts(const std::vector<std::uint64_t>& counts);

  /// Closes the current interval: history *= decay, then the interval's
  /// integer counts are folded in.
  void FoldInterval();

  /// Normalized demand estimate per file (sums to 1). Files never observed
  /// share a uniform floor so no file's frequency collapses to zero —
  /// every file must still appear in the broadcast program. Includes the
  /// current (unfolded) interval's counts.
  std::vector<double> Shares() const;

  /// Total requests observed since construction (undecayed; diagnostics).
  std::uint64_t total_observed() const { return total_observed_; }

  std::size_t file_count() const { return interval_counts_.size(); }

 private:
  double decay_;
  std::vector<std::uint64_t> interval_counts_;  // Current interval, exact.
  std::vector<double> decayed_;                 // Folded history.
  std::uint64_t total_observed_ = 0;
};

}  // namespace bdisk::adaptive

#endif  // BDISK_ADAPTIVE_DEMAND_ESTIMATOR_H_
