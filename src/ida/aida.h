/// \file aida.h
/// \brief The Adaptive Information Dispersal Algorithm (AIDA), paper
/// Section 2.2 (Bestavros [8]).
///
/// AIDA inserts a *bandwidth allocation* step between dispersal and
/// transmission: of the N blocks an item could be dispersed to, only n in
/// [m, N] are transmitted, where n is chosen per data item and per *mode of
/// operation* ("combat" vs "landing" in the paper's AWACS example).
/// Redundancy can thus be scaled up for critical items and down for
/// unimportant ones. RedundancyProfile holds that choice; the broadcast
/// program carries each file's n, and the servers disperse the file
/// m -> n through ida::Dispersal directly.

#ifndef BDISK_IDA_AIDA_H_
#define BDISK_IDA_AIDA_H_

#include <cstdint>
#include <map>
#include <string>

namespace bdisk::ida {

/// \brief Per-mode redundancy profile for one data item: how many of the N
/// dispersed blocks to transmit in each named mode of operation.
class RedundancyProfile {
 public:
  /// Creates a profile for an item dispersed m-out-of-n_max.
  RedundancyProfile(std::uint32_t m, std::uint32_t n_max)
      : m_(m), n_max_(n_max) {}

  /// Sets the transmitted-block count for `mode`. Clamped into [m, n_max].
  void SetMode(const std::string& mode, std::uint32_t n);

  /// Transmitted-block count for `mode`; falls back to m (no redundancy)
  /// for unknown modes, matching AIDA's "scale down for unimportant items"
  /// default.
  std::uint32_t BlocksForMode(const std::string& mode) const;

  /// Number of block-loss faults tolerated in `mode` (= n - m).
  std::uint32_t FaultsToleratedInMode(const std::string& mode) const {
    return BlocksForMode(mode) - m_;
  }

  std::uint32_t m() const { return m_; }
  std::uint32_t n_max() const { return n_max_; }

 private:
  std::uint32_t m_;
  std::uint32_t n_max_;
  std::map<std::string, std::uint32_t> mode_to_n_;
};

}  // namespace bdisk::ida

#endif  // BDISK_IDA_AIDA_H_
