/// \file metrics.h
/// \brief Aggregated results of a broadcast-disk simulation run.

#ifndef BDISK_SIM_METRICS_H_
#define BDISK_SIM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

namespace bdisk::sim {

/// \brief Per-file retrieval statistics: the aggregated outcomes of one
/// file's retrieval attempts.
struct FileMetrics {
  /// Latency (slots, start to completion inclusive) of completed attempts.
  RunningStats latency;
  /// Reconstruction stall time (slots) of completed attempts: actual
  /// latency minus the latency the same request would have had on the
  /// lossless channel — the pure cost of channel faults.
  RunningStats stall;
  /// Broadcast periods a completed attempt spanned before it recovered m
  /// good blocks (ceil(latency / period of the program governing the
  /// start slot)): 1 means "within the first period", more means the
  /// client had to wait for later periods (or epochs) to fill the gaps.
  RunningStats periods_to_recovery;
  /// Completed within the simulation horizon.
  std::uint64_t completed = 0;
  /// Completed but after the deadline.
  std::uint64_t missed_deadline = 0;
  /// Still incomplete when the horizon ended (counted as deadline misses in
  /// MissRate()).
  std::uint64_t incomplete = 0;
  /// Faulty transmissions (lost or corrupted) of the requested file
  /// observed by the attempts.
  std::uint64_t errors_observed = 0;
  /// Corrupted-and-detected transmissions among errors_observed.
  std::uint64_t corrupt_detected = 0;
  std::string file_name;

  std::uint64_t attempts() const { return completed + incomplete; }

  /// Fraction of attempts that missed their deadline (incomplete counts as
  /// a miss).
  double MissRate() const {
    const std::uint64_t a = attempts();
    if (a == 0) return 0.0;
    return static_cast<double>(missed_deadline + incomplete) /
           static_cast<double>(a);
  }

  /// Fraction of attempts that never recovered m good blocks within the
  /// horizon — the undecodable-file rate of the (channel, redundancy)
  /// operating point.
  double UndecodableRate() const {
    const std::uint64_t a = attempts();
    if (a == 0) return 0.0;
    return static_cast<double>(incomplete) / static_cast<double>(a);
  }

  /// Merges another shard's outcomes for the same file into this one.
  /// Exactly order-independent (counts are integers; stats merging is
  /// RunningStats::Merge over integer-valued observations).
  void Merge(const FileMetrics& other) {
    latency.Merge(other.latency);
    stall.Merge(other.stall);
    periods_to_recovery.Merge(other.periods_to_recovery);
    completed += other.completed;
    missed_deadline += other.missed_deadline;
    incomplete += other.incomplete;
    errors_observed += other.errors_observed;
    corrupt_detected += other.corrupt_detected;
    if (file_name.empty()) file_name = other.file_name;
  }
};

/// \brief Whole-run statistics.
struct SimulationMetrics {
  std::vector<FileMetrics> per_file;

  /// Attempts across all files.
  std::uint64_t TotalAttempts() const;
  /// Deadline-miss rate across all files.
  double OverallMissRate() const;
  /// Mean latency across all completed retrievals.
  double OverallMeanLatency() const;
  /// Max latency across all completed retrievals.
  double OverallMaxLatency() const;
  /// Mean reconstruction stall across all completed retrievals.
  double OverallMeanStall() const;
  /// Fraction of attempts that never became decodable within the horizon.
  double OverallUndecodableRate() const;

  /// Table rendering, one line per file.
  std::string ToString() const;

  /// Merges another run over the same program (file-by-file). The other
  /// run's per_file must be empty or the same size as this one's.
  void Merge(const SimulationMetrics& other);
};

/// \brief Canonical JSON snapshot of a full metrics object: every per-file
/// counter and stat plus the overall aggregates, with a stable key order
/// and lossless (%.17g) doubles, so two runs are bit-identical iff their
/// serializations are string-identical. The scenario regression harness
/// diffs these against committed goldens, and the benches emit them for
/// trajectory capture.
std::string MetricsToJson(const SimulationMetrics& metrics);

}  // namespace bdisk::sim

#endif  // BDISK_SIM_METRICS_H_
