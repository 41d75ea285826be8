/// \file program_optimizer.h
/// \brief Demand-driven broadcast-program re-optimization.
///
/// Given a demand estimate (normalized per-file access shares), the
/// optimizer derives target broadcast frequencies from the square-root
/// rule — the classic mean-delay optimum for broadcast media assigns file
/// i a frequency proportional to sqrt(p_i / m_i) (access probability over
/// transmission cost) — quantizes them onto a small set of multi-disk
/// frequency classes, builds one candidate program per quantization (1, 2,
/// 3 and 4 classes; 1 class is the flat baseline), and scores every
/// candidate by its exact expected mean delay,
///
///   sum_i p_i * MeanRetrievalLatency(program, i)
///
/// (the bdisk layer's closed form over occurrence lists, fault-free).
///
/// Candidates are independent, so they are evaluated in parallel across a
/// runtime::ThreadPool; selection is deterministic (score, then candidate
/// index) and therefore identical at any thread count.
///
/// Every produced program keeps the canonical file order and geometry
/// (name, m, n) of the optimizer's file list — the hot-swap requirement
/// (sim/epoch.h) that makes programs from successive re-optimizations
/// mutually swappable.

#ifndef BDISK_ADAPTIVE_PROGRAM_OPTIMIZER_H_
#define BDISK_ADAPTIVE_PROGRAM_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "bdisk/flat_builder.h"
#include "bdisk/program.h"
#include "common/status.h"

namespace bdisk::runtime {
class ThreadPool;
}  // namespace bdisk::runtime

namespace bdisk::adaptive {

/// \brief Exact scores of one program under a demand estimate.
struct ProgramScore {
  /// Demand-weighted mean retrieval latency in slots (fault-free, exact).
  double expected_mean_delay = 0.0;
};

/// \brief A chosen candidate program plus its planning artifacts.
struct OptimizedProgram {
  broadcast::BroadcastProgram program;
  ProgramScore score;
  /// Number of frequency classes of the winning candidate.
  std::uint32_t class_count = 0;
  /// Index of the winning candidate among the class counts tried
  /// (class_count - 1).
  std::size_t candidate_index = 0;
};

/// \brief Scores an existing program against a demand estimate (the same
/// metric Optimize() minimizes; used to decide whether a swap is worth it).
Result<ProgramScore> EvaluateProgram(const broadcast::BroadcastProgram& program,
                                     const std::vector<double>& demand);

/// \brief Demand-to-program optimizer over a fixed file population.
class ProgramOptimizer {
 public:
  /// Validates the file list: non-empty, unique names, m >= 1, n >= m.
  static Result<ProgramOptimizer> Create(
      std::vector<broadcast::FlatFileSpec> files);

  /// Builds and scores one candidate per class count and returns the best
  /// (lowest expected mean delay; ties break toward the lower candidate
  /// index). `demand` must hold one normalized share per file. With a
  /// non-null pool, candidates are evaluated concurrently; the result is
  /// identical at any thread count.
  Result<OptimizedProgram> Optimize(const std::vector<double>& demand,
                                    runtime::ThreadPool* pool = nullptr) const;

  const std::vector<broadcast::FlatFileSpec>& files() const { return files_; }

 private:
  explicit ProgramOptimizer(std::vector<broadcast::FlatFileSpec> files)
      : files_(std::move(files)) {}

  /// Builds the candidate for `class_count` frequency classes: square-root
  /// frequencies quantized to geometric levels, multi-disk layout, file
  /// indices remapped back to canonical order.
  Result<broadcast::BroadcastProgram> BuildCandidate(
      const std::vector<double>& demand, std::uint32_t class_count) const;

  std::vector<broadcast::FlatFileSpec> files_;
};

}  // namespace bdisk::adaptive

#endif  // BDISK_ADAPTIVE_PROGRAM_OPTIMIZER_H_
