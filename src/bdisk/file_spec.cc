#include "bdisk/file_spec.h"

#include <cmath>

namespace bdisk::broadcast {

Status FileSpec::Validate() const {
  if (size_blocks == 0) {
    return Status::InvalidArgument("FileSpec '" + name +
                                   "': size must be positive");
  }
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

Result<algebra::BroadcastCondition> FileSpec::ToBroadcastCondition(
    std::uint64_t bandwidth_blocks_per_second) const {
  BDISK_RETURN_NOT_OK(Validate());
  if (bandwidth_blocks_per_second == 0) {
    return Status::InvalidArgument("bandwidth must be positive");
  }
  BDISK_ASSIGN_OR_RETURN(const std::uint64_t window,
                         WindowSlots(bandwidth_blocks_per_second));
  algebra::BroadcastCondition bc;
  bc.m = size_blocks;
  bc.d.assign(fault_tolerance + 1, window);
  Status st = bc.Validate();
  if (!st.ok()) {
    return Status::Infeasible(
        "FileSpec '" + name + "': window of " + std::to_string(window) +
        " slots at " + std::to_string(bandwidth_blocks_per_second) +
        " blocks/sec cannot hold " +
        std::to_string(size_blocks + fault_tolerance) + " blocks (" +
        st.message() + ")");
  }
  return bc;
}

Status GeneralizedFileSpec::Validate() const {
  if (size_blocks == 0) {
    return Status::InvalidArgument("GeneralizedFileSpec '" + name +
                                   "': size must be positive");
  }
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
