#include "bdisk/file_spec.h"

#include <cmath>
#include <limits>

namespace bdisk::broadcast {

namespace {

/// A program carries m and n = m + r as 32-bit block counts
/// (ProgramFile), so a file whose counts do not fit is malformed.
Status CheckBlockCounts(const std::string& what, std::uint64_t m,
                        std::uint64_t r) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
  if (m > kMax || r > kMax - m) {
    return Status::InvalidArgument(
        what + ": " + std::to_string(m) + " blocks plus " +
        std::to_string(r) + " for fault tolerance do not fit 32 bits");
  }
  return Status::OK();
}

}  // namespace

Status FileSpec::Validate() const {
  if (size_blocks == 0) {
    return Status::InvalidArgument("FileSpec '" + name +
                                   "': size must be positive");
  }
  BDISK_RETURN_NOT_OK(CheckBlockCounts("FileSpec '" + name + "'",
                                       size_blocks, fault_tolerance));
  if (!(latency_seconds > 0.0)) {
    return Status::InvalidArgument("FileSpec '" + name +
                                   "': latency must be positive");
  }
  return Status::OK();
}

double FileSpec::DemandBlocksPerSecond() const {
  return static_cast<double>(size_blocks + fault_tolerance) / latency_seconds;
}

Result<std::uint64_t> FileSpec::WindowSlots(
    std::uint64_t bandwidth_blocks_per_second) const {
  const double window =
      std::floor(static_cast<double>(bandwidth_blocks_per_second) *
                 latency_seconds);
  // Converting a double at or past 2^64 to an integer is undefined; the
  // negated test also rejects NaN.
  if (!(window >= 0.0 && window < 0x1p64)) {
    return Status::InvalidArgument(
        "FileSpec '" + name + "': latency window at " +
        std::to_string(bandwidth_blocks_per_second) +
        " blocks/sec is not a finite 64-bit slot count");
  }
  return static_cast<std::uint64_t>(window);
}

Status GeneralizedFileSpec::Validate() const {
  if (size_blocks == 0) {
    return Status::InvalidArgument("GeneralizedFileSpec '" + name +
                                   "': size must be positive");
  }
  BDISK_RETURN_NOT_OK(CheckBlockCounts("GeneralizedFileSpec '" + name + "'",
                                       size_blocks, fault_tolerance()));
  return ToBroadcastCondition().Validate().WithContext("GeneralizedFileSpec '" +
                                                       name + "'");
}

algebra::BroadcastCondition GeneralizedFileSpec::ToBroadcastCondition() const {
  algebra::BroadcastCondition bc;
  bc.m = size_blocks;
  bc.d = latency_slots;
  return bc;
}

}  // namespace bdisk::broadcast
