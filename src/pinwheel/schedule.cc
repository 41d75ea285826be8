#include "pinwheel/schedule.h"

#include <sstream>

namespace bdisk::pinwheel {

Result<Schedule> Schedule::FromCycle(std::vector<TaskId> cycle) {
  if (cycle.empty()) {
    return Status::InvalidArgument("Schedule: cycle must be non-empty");
  }
  return Schedule(std::move(cycle));
}

std::string Schedule::ToString() const {
  std::ostringstream oss;
  for (std::size_t i = 0; i < cycle_.size(); ++i) {
    if (i > 0) oss << ", ";
    if (cycle_[i] == kIdle) {
      oss << "*";
    } else {
      oss << cycle_[i];
    }
  }
  return oss.str();
}

}  // namespace bdisk::pinwheel
