#include "bdisk/bandwidth.h"

#include <cmath>
#include <limits>
#include <string>

namespace bdisk::broadcast {

namespace {

/// ceil(blocks_per_second) as an integer rate. Converting a double at or
/// past 2^64 to an integer is undefined; the negated test also rejects NaN.
Result<std::uint64_t> CeilRate(double blocks_per_second, const char* what) {
  const double rate = std::ceil(blocks_per_second);
  if (!(rate >= 0.0 && rate < 0x1p64)) {
    return Status::InvalidArgument(std::string("BandwidthPlanner: ") + what +
                                   " is not a finite 64-bit blocks/sec rate");
  }
  return static_cast<std::uint64_t>(rate);
}

}  // namespace

Result<double> BandwidthPlanner::LowerBound(const std::vector<FileSpec>& files) {
  if (files.empty()) {
    return Status::InvalidArgument("BandwidthPlanner: no files");
  }
  double sum = 0.0;
  for (const FileSpec& f : files) {
    BDISK_RETURN_NOT_OK(f.Validate());
    sum += f.DemandBlocksPerSecond();
  }
  return sum;
}

Result<std::uint64_t> BandwidthPlanner::SufficientBandwidth(
    const std::vector<FileSpec>& files) {
  BDISK_ASSIGN_OR_RETURN(double lower, LowerBound(files));
  return CeilRate(lower / kSchedulableDensity, "sufficient bandwidth");
}

Result<pinwheel::Instance> BandwidthPlanner::ToPinwheelInstance(
    const std::vector<FileSpec>& files,
    std::uint64_t bandwidth_blocks_per_second) {
  if (files.empty()) {
    return Status::InvalidArgument("BandwidthPlanner: no files");
  }
  std::vector<pinwheel::Task> tasks;
  tasks.reserve(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    const FileSpec& f = files[i];
    BDISK_RETURN_NOT_OK(f.Validate());
    BDISK_ASSIGN_OR_RETURN(const std::uint64_t window,
                           f.WindowSlots(bandwidth_blocks_per_second));
    const std::uint64_t need = f.size_blocks + f.fault_tolerance;
    if (window < need) {
      return Status::Infeasible(
          "file '" + f.name + "': window " + std::to_string(window) +
          " slots at bandwidth " + std::to_string(bandwidth_blocks_per_second) +
          " cannot hold " + std::to_string(need) + " blocks");
    }
    tasks.push_back(
        pinwheel::Task{static_cast<pinwheel::TaskId>(i), need, window});
  }
  return pinwheel::Instance::Create(std::move(tasks));
}

Result<BandwidthPlanner::MinimalBandwidth>
BandwidthPlanner::FindMinimalBandwidth(const std::vector<FileSpec>& files,
                                       const pinwheel::Scheduler& scheduler,
                                       std::uint64_t hi) {
  BDISK_ASSIGN_OR_RETURN(double lower_d, LowerBound(files));
  BDISK_ASSIGN_OR_RETURN(std::uint64_t lo,
                         CeilRate(lower_d, "bandwidth lower bound"));
  if (lo == 0) lo = 1;
  if (hi == 0) {
    BDISK_ASSIGN_OR_RETURN(std::uint64_t sufficient,
                           SufficientBandwidth(files));
    if (sufficient > std::numeric_limits<std::uint64_t>::max() / 4) {
      return Status::InvalidArgument(
          "BandwidthPlanner: four times the sufficient bandwidth " +
          std::to_string(sufficient) + " blocks/sec passes 2^64");
    }
    hi = sufficient * 4;
  }
  if (hi < lo) hi = lo;

  const auto try_bandwidth =
      [&files, &scheduler](
          std::uint64_t b) -> Result<pinwheel::Schedule> {
    auto instance = ToPinwheelInstance(files, b);
    if (!instance.ok()) return instance.status();
    return scheduler.BuildSchedule(*instance);
  };

  // Establish a feasible hi first.
  Result<pinwheel::Schedule> at_hi = try_bandwidth(hi);
  if (!at_hi.ok()) {
    return Status::Infeasible(
        "FindMinimalBandwidth: scheduler '" + scheduler.name() +
        "' fails even at bandwidth " + std::to_string(hi) + ": " +
        at_hi.status().message());
  }
  std::uint64_t best_b = hi;
  pinwheel::Schedule best_schedule = std::move(*at_hi);

  std::uint64_t lo_search = lo;
  std::uint64_t hi_search = hi;
  while (lo_search < hi_search) {
    const std::uint64_t mid = lo_search + (hi_search - lo_search) / 2;
    Result<pinwheel::Schedule> r = try_bandwidth(mid);
    if (r.ok()) {
      best_b = mid;
      best_schedule = std::move(*r);
      hi_search = mid;
    } else {
      lo_search = mid + 1;
    }
  }
  return MinimalBandwidth{best_b, std::move(best_schedule)};
}

}  // namespace bdisk::broadcast
