#include "common/random.h"

#include <unordered_set>

namespace bdisk {

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n,
                                                       std::size_t k) {
  BDISK_CHECK(k <= n);
  // Floyd's algorithm: k iterations, expected O(k) set operations.
  std::unordered_set<std::size_t> chosen;
  chosen.reserve(k * 2);
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    std::size_t t = Uniform(j + 1);
    if (chosen.count(t) != 0) t = j;
    chosen.insert(t);
    out.push_back(t);
  }
  return out;
}

}  // namespace bdisk
