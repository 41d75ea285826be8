/// \file program.h
/// \brief Broadcast programs (paper, Sections 2.3 and 4.1).
///
/// A broadcast program is a function P from slots to files (Definition 1):
/// P(t) = i iff a block of file F_i is transmitted during slot t, P(t) = 0
/// (here: kIdle) iff nothing is transmitted. We represent the periodic case
/// plus the *data-cycle rotation* of Section 2.3: at its k-th transmission
/// (counted from slot 0) a file sends dispersed block k mod n_i, so the
/// program repeats blocks only after the full program data cycle, and any
/// run of up to n_i consecutive transmissions of a file carries pairwise
/// distinct blocks.

#ifndef BDISK_BDISK_PROGRAM_H_
#define BDISK_BDISK_PROGRAM_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "ida/block.h"
#include "pinwheel/schedule.h"

namespace bdisk::broadcast {

/// Index of a file within a program (dense; doubles as ida::FileId).
using FileIndex = std::uint32_t;

/// \brief Per-file metadata carried by a program.
struct ProgramFile {
  std::string name;
  /// Reconstruction threshold m_i (blocks needed by a client).
  std::uint32_t m = 1;
  /// Number of distinct dispersed blocks the server rotates through
  /// (the AIDA bandwidth-allocation choice n_i, m_i <= n_i).
  std::uint32_t n = 1;
  /// Optional latency vector d⃗_i (slots) for bc verification; empty means
  /// no real-time constraint attached.
  std::vector<std::uint64_t> latency_slots;
};

/// \brief A transmission: which file, and which of its dispersed blocks.
struct TransmissionRef {
  FileIndex file = 0;
  std::uint32_t block_index = 0;

  bool operator==(const TransmissionRef&) const = default;
};

/// \brief A periodic broadcast program with data-cycle rotation.
class BroadcastProgram {
 public:
  /// Constructs an empty placeholder; use Create() to obtain a usable
  /// program (all accessors require a non-empty period).
  BroadcastProgram() = default;

  /// Builds a program. `slot_to_file[t]` gives the file broadcast in slot t
  /// of the period, or kIdleSlot. Every file must appear at least once per
  /// period and have n >= m.
  static Result<BroadcastProgram> Create(std::vector<ProgramFile> files,
                                         std::vector<FileIndex> slot_to_file);

  /// Marker for an idle slot in `slot_to_file`.
  static constexpr FileIndex kIdleSlot = 0xFFFFFFFFu;

  /// Broadcast period tau in slots (Lemma 1).
  std::uint64_t period() const { return slot_to_file_.size(); }

  /// \brief Program data cycle in slots (Section 2.3): the smallest multiple
  /// of the period after which every file's block rotation re-aligns; the
  /// program as a sequence of (file, block) pairs has exactly this period.
  /// UINT64_MAX when the cycle does not fit in 64 bits (rotations of many
  /// coprime lengths): the program is still valid, but a horizon sized from
  /// its cycle must saturate or be rejected, never wrap.
  std::uint64_t DataCycleLength() const { return data_cycle_; }

  const std::vector<ProgramFile>& files() const { return files_; }
  std::size_t file_count() const { return files_.size(); }

  /// File broadcast at absolute slot t, or nullopt when idle.
  std::optional<FileIndex> FileAt(std::uint64_t t) const;

  /// File and rotated block index at absolute slot t (nullopt when idle).
  std::optional<TransmissionRef> TransmissionAt(std::uint64_t t) const;

  /// Slots (within one period) at which `file` is broadcast, ascending.
  const std::vector<std::uint64_t>& OccurrencesOf(FileIndex file) const;

  /// \brief Slot of `file`'s k-th transmission, counted from slot 0:
  /// floor(k / c) * period + occ[k mod c] with c = CountOf(file). It carries
  /// block k mod n. With TransmissionAtOrAfter, this is the one place the
  /// Section 2.3 rotation arithmetic lives; the delay analysis, the mean
  /// latency, TransmissionAt and the event engine's lanes all use it.
  std::uint64_t SlotOfTransmission(FileIndex file, std::uint64_t k) const {
    BDISK_DCHECK(file < occurrences_.size());
    const std::vector<std::uint64_t>& occ = occurrences_[file];
    return k / occ.size() * period() + occ[k % occ.size()];
  }

  /// \brief Ordinal of `file`'s first transmission at or after slot t:
  /// floor(t / period) * c + the rank of t mod period among the file's
  /// occurrences (a rank of c is the next period's first transmission).
  std::uint64_t TransmissionAtOrAfter(FileIndex file, std::uint64_t t) const {
    BDISK_DCHECK(file < occurrences_.size());
    const std::vector<std::uint64_t>& occ = occurrences_[file];
    const auto rank =
        std::lower_bound(occ.begin(), occ.end(), t % period()) - occ.begin();
    return t / period() * occ.size() + static_cast<std::uint64_t>(rank);
  }

  /// Transmissions of `file` per period.
  std::uint64_t CountOf(FileIndex file) const;

  /// \brief The paper's Delta for Lemma 2: the maximum cyclic gap in slots
  /// between consecutive transmissions of `file`.
  std::uint64_t MaxGapOf(FileIndex file) const;

  /// Fraction of non-idle slots.
  double Utilization() const;

  /// \brief Checks every file's bc(m_i, d⃗_i) condition (files with an empty
  /// latency vector are skipped): file i must occupy at least m_i + j slots
  /// of every window of d^(j) slots. Exact over all window offsets.
  Status VerifyBroadcastConditions() const;

  /// The slot-to-file cycle (one period).
  const std::vector<FileIndex>& slots() const { return slot_to_file_; }

  /// "A0 B0 A1 ..." rendering of `periods` periods with rotated block
  /// indices (name + block index per slot, '*' for idle).
  std::string ToString(std::uint64_t periods = 1) const;

 private:
  std::vector<ProgramFile> files_;
  std::vector<FileIndex> slot_to_file_;
  std::vector<std::vector<std::uint64_t>> occurrences_;  // Per file.
  std::uint64_t data_cycle_ = 0;
};

}  // namespace bdisk::broadcast

#endif  // BDISK_BDISK_PROGRAM_H_
