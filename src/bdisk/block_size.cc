#include "bdisk/block_size.h"

#include <algorithm>

namespace bdisk::broadcast {

Result<BlockSizeChoice> ChooseLargestFeasibleBlockSize(
    const std::vector<ByteFileSpec>& files,
    std::uint64_t channel_bytes_per_second,
    const pinwheel::Scheduler& scheduler,
    std::vector<std::uint64_t> candidates) {
  if (files.empty()) {
    return Status::InvalidArgument("ChooseBlockSize: no files");
  }
  if (channel_bytes_per_second == 0) {
    return Status::InvalidArgument("ChooseBlockSize: channel must be > 0");
  }
  for (const ByteFileSpec& f : files) {
    if (f.bytes == 0 || !(f.latency_seconds > 0.0)) {
      return Status::InvalidArgument("ChooseBlockSize: file '" + f.name +
                                     "' malformed");
    }
  }
  if (candidates.empty()) {
    for (std::uint64_t b = 64; b <= 64 * 1024; b *= 2) {
      candidates.push_back(b);
    }
  }
  std::sort(candidates.begin(), candidates.end(), std::greater<>());

  Status last = Status::Infeasible("ChooseBlockSize: no candidates");
  for (std::uint64_t block_size : candidates) {
    if (block_size == 0) continue;
    const std::uint64_t bandwidth = channel_bytes_per_second / block_size;
    if (bandwidth == 0) {
      last = Status::Infeasible("block size " + std::to_string(block_size) +
                                " exceeds the channel rate");
      continue;
    }
    std::vector<FileSpec> specs;
    std::vector<std::uint64_t> levels;
    for (const ByteFileSpec& f : files) {
      const std::uint64_t m = (f.bytes + block_size - 1) / block_size;
      levels.push_back(m);
      specs.push_back(FileSpec{f.name, m, f.latency_seconds,
                               f.fault_tolerance});
    }
    auto build = BuildProgram(specs, bandwidth, scheduler);
    if (build.ok()) {
      return BlockSizeChoice{block_size, bandwidth, std::move(levels),
                             std::move(*build)};
    }
    // A smaller block only raises the bandwidth and the blocks per file, so
    // a malformed spec (e.g. a window past 2^64 slots) stays malformed at
    // every remaining candidate: report it as such, not as infeasible.
    if (build.status().IsInvalidArgument()) return build.status();
    last = build.status();
  }
  return Status::Infeasible(
      "ChooseBlockSize: no candidate block size is schedulable (last: " +
      last.message() + ")");
}

}  // namespace bdisk::broadcast
