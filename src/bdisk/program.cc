#include "bdisk/program.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/stats.h"
#include "pinwheel/verifier.h"

namespace bdisk::broadcast {

Result<BroadcastProgram> BroadcastProgram::Create(
    std::vector<ProgramFile> files, std::vector<FileIndex> slot_to_file) {
  if (files.empty()) {
    return Status::InvalidArgument("BroadcastProgram: no files");
  }
  if (slot_to_file.empty()) {
    return Status::InvalidArgument("BroadcastProgram: empty period");
  }
  for (std::size_t f = 0; f < files.size(); ++f) {
    const ProgramFile& pf = files[f];
    if (pf.m == 0) {
      return Status::InvalidArgument("BroadcastProgram: file '" + pf.name +
                                     "' has zero size");
    }
    if (pf.n < pf.m) {
      return Status::InvalidArgument(
          "BroadcastProgram: file '" + pf.name + "' rotates " +
          std::to_string(pf.n) + " blocks, below its threshold m = " +
          std::to_string(pf.m));
    }
  }

  BroadcastProgram p;
  p.occurrences_.resize(files.size());
  for (std::uint64_t t = 0; t < slot_to_file.size(); ++t) {
    const FileIndex f = slot_to_file[t];
    if (f == kIdleSlot) continue;
    if (f >= files.size()) {
      return Status::InvalidArgument(
          "BroadcastProgram: slot " + std::to_string(t) +
          " references unknown file " + std::to_string(f));
    }
    p.occurrences_[f].push_back(t);
  }
  for (std::size_t f = 0; f < files.size(); ++f) {
    if (p.occurrences_[f].empty()) {
      return Status::InvalidArgument("BroadcastProgram: file '" +
                                     files[f].name +
                                     "' never appears in the period");
    }
  }

  // Data cycle: the block rotation of file f re-aligns with the period
  // every r_f = n_f / gcd(c_f, n_f) periods, so the cycle is the period
  // times lcm_f r_f. Each step multiplies the cycle so far (period * L) by
  // r_f / gcd(L, r_f), checked: UINT64_MAX once it does not fit.
  const std::uint64_t period = slot_to_file.size();
  p.data_cycle_ = period;
  for (std::size_t f = 0; f < files.size(); ++f) {
    const std::uint64_t c = p.occurrences_[f].size();
    const std::uint64_t n = files[f].n;
    const std::uint64_t r = n / Gcd(c, n);
    const std::uint64_t step = r / Gcd(p.data_cycle_ / period, r);
    if (p.data_cycle_ > std::numeric_limits<std::uint64_t>::max() / step) {
      p.data_cycle_ = std::numeric_limits<std::uint64_t>::max();
      break;
    }
    p.data_cycle_ *= step;
  }

  p.files_ = std::move(files);
  p.slot_to_file_ = std::move(slot_to_file);
  return p;
}

std::optional<FileIndex> BroadcastProgram::FileAt(std::uint64_t t) const {
  const FileIndex f = slot_to_file_[t % period()];
  if (f == kIdleSlot) return std::nullopt;
  return f;
}

std::optional<TransmissionRef> BroadcastProgram::TransmissionAt(
    std::uint64_t t) const {
  const std::optional<FileIndex> f = FileAt(t);
  if (!f.has_value()) return std::nullopt;
  const std::uint64_t ordinal = TransmissionAtOrAfter(*f, t);
  BDISK_DCHECK(SlotOfTransmission(*f, ordinal) == t);
  return TransmissionRef{
      *f, static_cast<std::uint32_t>(ordinal % files_[*f].n)};
}

const std::vector<std::uint64_t>& BroadcastProgram::OccurrencesOf(
    FileIndex file) const {
  BDISK_CHECK(file < files_.size());
  return occurrences_[file];
}

std::uint64_t BroadcastProgram::CountOf(FileIndex file) const {
  return OccurrencesOf(file).size();
}

std::uint64_t BroadcastProgram::MaxGapOf(FileIndex file) const {
  const auto& occ = OccurrencesOf(file);
  std::uint64_t max_gap = 0;
  for (std::size_t i = 0; i < occ.size(); ++i) {
    const std::uint64_t next =
        i + 1 < occ.size() ? occ[i + 1] : occ[0] + period();
    max_gap = std::max(max_gap, next - occ[i]);
  }
  return max_gap;
}

double BroadcastProgram::Utilization() const {
  std::uint64_t busy = 0;
  for (FileIndex f : slot_to_file_) {
    if (f != kIdleSlot) ++busy;
  }
  return static_cast<double>(busy) / static_cast<double>(period());
}

Status BroadcastProgram::VerifyBroadcastConditions() const {
  // File indices double as pinwheel task ids; each condition is swept over
  // the file's own occurrence list.
  for (std::size_t f = 0; f < files_.size(); ++f) {
    const ProgramFile& pf = files_[f];
    for (std::size_t j = 0; j < pf.latency_slots.size(); ++j) {
      const pinwheel::ConditionCheck check = pinwheel::Verifier::CheckCondition(
          occurrences_[f], period(), static_cast<pinwheel::TaskId>(f),
          pf.m + j, pf.latency_slots[j]);
      if (!check.satisfied) {
        return Status::Infeasible("file '" + pf.name + "' violates " +
                                  check.ToString());
      }
    }
  }
  return Status::OK();
}

std::string BroadcastProgram::ToString(std::uint64_t periods) const {
  std::ostringstream oss;
  const std::uint64_t total = periods * period();
  for (std::uint64_t t = 0; t < total; ++t) {
    if (t > 0) oss << ' ';
    const std::optional<TransmissionRef> tx = TransmissionAt(t);
    if (!tx.has_value()) {
      oss << '*';
    } else {
      oss << files_[tx->file].name << tx->block_index;
    }
  }
  return oss.str();
}

}  // namespace bdisk::broadcast
