#include "pinwheel/task.h"

#include <sstream>
#include <unordered_set>

namespace bdisk::pinwheel {

std::string Task::ToString() const {
  std::ostringstream oss;
  oss << "(" << id << ", " << a << ", " << b << ")";
  return oss.str();
}

Result<Instance> Instance::Create(std::vector<Task> tasks) {
  std::unordered_set<TaskId> ids;
  ids.reserve(tasks.size());
  for (const Task& t : tasks) {
    if (t.a == 0) {
      return Status::InvalidArgument("Task " + t.ToString() +
                                     ": requirement a must be positive");
    }
    if (t.b == 0) {
      return Status::InvalidArgument("Task " + t.ToString() +
                                     ": window b must be positive");
    }
    if (t.a > t.b) {
      return Status::InvalidArgument("Task " + t.ToString() +
                                     ": requirement a exceeds window b");
    }
    if (!ids.insert(t.id).second) {
      return Status::InvalidArgument(
          "Duplicate task id " + std::to_string(t.id) +
          "; conjuncts of conditions on one task must be lowered to nice "
          "form first (see algebra::NiceConverter)");
    }
  }
  return Instance(std::move(tasks));
}

double Instance::density() const {
  double d = 0.0;
  for (const Task& t : tasks_) d += t.density();
  return d;
}

std::string Instance::ToString() const {
  std::ostringstream oss;
  oss << "{";
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << tasks_[i].ToString();
  }
  oss << "}";
  return oss.str();
}

}  // namespace bdisk::pinwheel
