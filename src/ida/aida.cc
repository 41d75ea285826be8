#include "ida/aida.h"

#include <algorithm>

namespace bdisk::ida {

void RedundancyProfile::SetMode(const std::string& mode, std::uint32_t n) {
  mode_to_n_[mode] = std::clamp(n, m_, n_max_);
}

std::uint32_t RedundancyProfile::BlocksForMode(const std::string& mode) const {
  auto it = mode_to_n_.find(mode);
  return it == mode_to_n_.end() ? m_ : it->second;
}

}  // namespace bdisk::ida
