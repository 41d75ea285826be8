/// \file file_spec.h
/// \brief Broadcast-file specifications (paper, Sections 3.2 and 4.1).
///
/// Two levels of generality:
/// * FileSpec — "regular" fault-tolerant real-time file: size m_i (blocks),
///   latency T_i (seconds), fault tolerance r_i. At bandwidth B blocks/sec
///   this induces the pinwheel task (i, m_i + r_i, floor(B * T_i)).
/// * GeneralizedFileSpec — Section 4's model: size m_i plus a latency
///   vector d⃗_i in block-slots; d^(j) bounds the tolerable latency when j
///   faults occur. Regular specs embed by setting every d^(j) equal.

#ifndef BDISK_BDISK_FILE_SPEC_H_
#define BDISK_BDISK_FILE_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/condition.h"
#include "common/status.h"

namespace bdisk::broadcast {

/// \brief Regular fault-tolerant real-time broadcast file (Section 3.2).
struct FileSpec {
  /// Human-readable name ("aircraft-positions").
  std::string name;
  /// Size m_i in blocks (reconstruction threshold under IDA).
  std::uint64_t size_blocks = 1;
  /// Latency constraint T_i in seconds: every client must be able to
  /// collect the file within T_i, regardless of when it starts listening.
  double latency_seconds = 1.0;
  /// Number of block-loss faults r_i to tolerate within one retrieval.
  std::uint64_t fault_tolerance = 0;

  /// Validates size >= 1 and latency > 0.
  Status Validate() const;

  /// Blocks/sec this file alone contributes to the bandwidth lower bound:
  /// (m_i + r_i) / T_i.
  double DemandBlocksPerSecond() const;

  /// The latency window floor(B * T_i) in slots at bandwidth B blocks/sec.
  /// InvalidArgument, naming the file, when the window is not finite or
  /// does not fit 64 bits.
  Result<std::uint64_t> WindowSlots(
      std::uint64_t bandwidth_blocks_per_second) const;

  /// The broadcast condition at integer bandwidth B blocks/sec: all
  /// latencies equal floor(B * T_i). Fails if that window cannot hold
  /// m_i + r_i blocks.
  Result<algebra::BroadcastCondition> ToBroadcastCondition(
      std::uint64_t bandwidth_blocks_per_second) const;
};

/// \brief Generalized fault-tolerant real-time broadcast file (Section 4.1).
struct GeneralizedFileSpec {
  std::string name;
  /// Size m_i in blocks.
  std::uint64_t size_blocks = 1;
  /// Latency vector in slots: latency_slots[j] = d^(j), j = 0..r_i.
  std::vector<std::uint64_t> latency_slots;

  /// Validates via the underlying broadcast condition.
  Status Validate() const;

  /// Fault tolerance r_i.
  std::uint64_t fault_tolerance() const {
    return latency_slots.empty() ? 0 : latency_slots.size() - 1;
  }

  /// The bc(m_i, d⃗_i) condition.
  algebra::BroadcastCondition ToBroadcastCondition() const;
};

}  // namespace bdisk::broadcast

#endif  // BDISK_BDISK_FILE_SPEC_H_
