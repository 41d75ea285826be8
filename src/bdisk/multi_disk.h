/// \file multi_disk.h
/// \brief The classic multi-speed Broadcast Disks program generator
/// (Acharya, Franklin & Zdonik [1, 4] — the prior work the paper builds
/// on).
///
/// Files are placed on virtual "disks" with relative spin frequencies;
/// hot data on fast disks is broadcast more often, minimizing *mean*
/// latency across a client population. The generation algorithm is the
/// SIGMOD'95 one: with disk frequencies f_1..f_k and L = lcm(f_i), disk i
/// is split into C_i = L / f_i chunks and minor cycle j broadcasts chunk
/// (j mod C_i) of every disk, so a disk-i page recurs exactly f_i times
/// per major cycle.
///
/// This module exists as the baseline the paper positions itself against:
/// frequency assignment optimizes the average, while the pinwheel builders
/// of pinwheel_builder.h guarantee worst-case deadlines. The adaptive
/// optimizer (adaptive/program_optimizer.h) uses it to lay out its
/// frequency classes. AIDA rotation composes with it (files may set
/// n > m), since rotation is a property of BroadcastProgram itself.

#ifndef BDISK_BDISK_MULTI_DISK_H_
#define BDISK_BDISK_MULTI_DISK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bdisk/flat_builder.h"
#include "bdisk/program.h"
#include "common/status.h"

namespace bdisk::broadcast {

/// \brief One virtual disk: a relative spin frequency and the files on it.
struct DiskSpec {
  /// Relative broadcast frequency (>= 1); a frequency-3 disk's pages
  /// appear three times as often as a frequency-1 disk's.
  std::uint32_t relative_frequency = 1;
  /// Files resident on this disk (FlatFileSpec: name, m slots, n rotated).
  std::vector<FlatFileSpec> files;
};

/// \brief Result of multi-disk generation: the program plus layout info.
struct MultiDiskProgram {
  BroadcastProgram program;
  /// Minor cycles per major cycle (L = lcm of frequencies).
  std::uint32_t minor_cycles = 0;
  /// Slots per minor cycle.
  std::uint64_t minor_cycle_slots = 0;
};

/// \brief Generates the interleaved multi-disk broadcast program.
///
/// Every disk must hold at least one file. When a disk's slot count does
/// not divide evenly into its C_i = lcm/f_i chunks, the trailing chunk is
/// padded with idle slots (as in the original algorithm's empty pages).
Result<MultiDiskProgram> BuildMultiDiskProgram(
    const std::vector<DiskSpec>& disks);

/// \brief Mean retrieval latency (slots) for a whole-file retrieval of
/// `file`, averaged over all start slots in one data cycle, assuming a
/// fault-free channel. Exact (closed form over the occurrence lists).
double MeanRetrievalLatency(const BroadcastProgram& program, FileIndex file);

}  // namespace bdisk::broadcast

#endif  // BDISK_BDISK_MULTI_DISK_H_
