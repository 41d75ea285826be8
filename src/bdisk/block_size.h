/// \file block_size.h
/// \brief Block-size planning — the paper's Section 5 open question as an
/// API.
///
/// "Our problem reduces to finding out the largest b that satisfies the
/// combined timeliness, fault-tolerance, and bandwidth constraints."
///
/// Given files in *bytes*, latencies in seconds, a channel in bytes/sec
/// and a candidate block-size ladder, ChooseLargestFeasibleBlockSize walks
/// the ladder from the largest size down and returns the first block size
/// whose induced broadcast-disk system (m_i = ceil(bytes_i / b) blocks at
/// bandwidth floor(channel / b) blocks/sec) is actually schedulable —
/// large blocks minimize the O(m^2) dispersal/reconstruction cost, small
/// blocks use bandwidth more efficiently.

#ifndef BDISK_BDISK_BLOCK_SIZE_H_
#define BDISK_BDISK_BLOCK_SIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bdisk/pinwheel_builder.h"
#include "common/status.h"
#include "pinwheel/scheduler.h"

namespace bdisk::broadcast {

/// \brief A broadcast file in byte units (pre block-size decision).
struct ByteFileSpec {
  std::string name;
  /// Payload size in bytes.
  std::uint64_t bytes = 1;
  /// Latency constraint in seconds.
  double latency_seconds = 1.0;
  /// Block-loss faults to tolerate per retrieval.
  std::uint64_t fault_tolerance = 0;
};

/// \brief Outcome of the block-size search.
struct BlockSizeChoice {
  /// The chosen (largest feasible) block size in bytes.
  std::uint64_t block_size = 0;
  /// Channel bandwidth in blocks/sec at that block size.
  std::uint64_t bandwidth_blocks_per_second = 0;
  /// Per-file dispersal levels m_i at that block size.
  std::vector<std::uint64_t> dispersal_levels;
  /// The built (verified) program.
  BuildResult build;
};

/// \brief Finds the largest candidate block size whose induced system is
/// schedulable; fails Infeasible if none is, and InvalidArgument as soon
/// as a candidate finds the files malformed (the remaining, smaller
/// candidates would too).
///
/// `candidates` may be in any order (searched largest-first); empty means
/// the default power-of-two ladder 64 B .. 64 KiB.
Result<BlockSizeChoice> ChooseLargestFeasibleBlockSize(
    const std::vector<ByteFileSpec>& files,
    std::uint64_t channel_bytes_per_second,
    const pinwheel::Scheduler& scheduler,
    std::vector<std::uint64_t> candidates = {});

}  // namespace bdisk::broadcast

#endif  // BDISK_BDISK_BLOCK_SIZE_H_
