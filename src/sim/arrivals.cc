#include "sim/arrivals.h"

#include "common/check.h"

namespace bdisk::sim {

namespace {

// The family tag keeps arrival streams apart from other consumers of the
// same seed, mirroring the channel models' family-tagged streams.
constexpr std::uint64_t kPoissonTag = 0x506f6973736f6e41ULL;  // "PoissonA"

}  // namespace

PoissonArrivals::PoissonArrivals(std::uint64_t window_slots,
                                 std::uint64_t seed)
    : window_(window_slots),
      seed_(seed),
      base_(runtime::Mix64(seed ^ kPoissonTag)) {
  BDISK_CHECK(window_ > 0);
}

std::string PoissonArrivals::Describe() const {
  return "poisson:window=" + std::to_string(window_) +
         ",seed=" + std::to_string(seed_);
}

}  // namespace bdisk::sim
