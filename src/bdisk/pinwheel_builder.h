/// \file pinwheel_builder.h
/// \brief End-to-end construction of real-time fault-tolerant broadcast
/// programs via pinwheel scheduling — the paper's main pipeline.
///
/// Regular files (Section 3.2):
///   FileSpec* --(bandwidth B)--> pinwheel tasks (i, m_i + r_i, B*T_i)
///   --> scheduler --> BroadcastProgram.
///
/// Generalized files (Section 4):
///   GeneralizedFileSpec* --> bc conditions --(NiceConverter)--> nice
///   pinwheel instance with virtual tasks --> scheduler --> slots mapped
///   back through map(i', i) --> BroadcastProgram.
///
/// The produced program rotates each file through n_i = m_i + r_i dispersed
/// blocks (AIDA), so any m_i + j transmissions within a window contain
/// m_i + j distinct blocks for j <= r_i, and the program provably satisfies
/// every bc condition (re-verified before returning).

#ifndef BDISK_BDISK_PINWHEEL_BUILDER_H_
#define BDISK_BDISK_PINWHEEL_BUILDER_H_

#include <cstdint>
#include <vector>

#include "algebra/optimizer.h"
#include "bdisk/file_spec.h"
#include "bdisk/program.h"
#include "common/status.h"
#include "pinwheel/scheduler.h"

namespace bdisk::broadcast {

/// \brief Result of building a program, with the planning artifacts.
struct BuildResult {
  BroadcastProgram program;
  /// The nice pinwheel instance that was scheduled.
  pinwheel::Instance instance;
  /// Density of that instance.
  double scheduled_density = 0.0;
  /// Per-file conversion details (generalized pipeline only).
  std::vector<algebra::Conversion> conversions;
};

/// \brief Builds a program for regular files at the given bandwidth.
///
/// `bandwidth_blocks_per_second` is typically BandwidthPlanner::
/// SufficientBandwidth(files); latencies are converted to slot windows at
/// that bandwidth.
Result<BuildResult> BuildProgram(const std::vector<FileSpec>& files,
                                 std::uint64_t bandwidth_blocks_per_second,
                                 const pinwheel::Scheduler& scheduler);

/// \brief Builds a program for generalized files (latency vectors in slots).
Result<BuildResult> BuildGeneralizedProgram(
    const std::vector<GeneralizedFileSpec>& files,
    const pinwheel::Scheduler& scheduler);

}  // namespace bdisk::broadcast

#endif  // BDISK_BDISK_PINWHEEL_BUILDER_H_
