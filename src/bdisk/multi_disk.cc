#include "bdisk/multi_disk.h"

#include "common/check.h"
#include "common/stats.h"

namespace bdisk::broadcast {

Result<MultiDiskProgram> BuildMultiDiskProgram(
    const std::vector<DiskSpec>& disks) {
  if (disks.empty()) {
    return Status::InvalidArgument("BuildMultiDiskProgram: no disks");
  }
  std::uint64_t lcm = 1;
  for (const DiskSpec& d : disks) {
    if (d.relative_frequency == 0) {
      return Status::InvalidArgument(
          "BuildMultiDiskProgram: frequency must be positive");
    }
    if (d.files.empty()) {
      return Status::InvalidArgument(
          "BuildMultiDiskProgram: every disk needs at least one file");
    }
    lcm = LcmCapped(lcm, d.relative_frequency, 1u << 20);
  }
  if (lcm >= (1u << 20)) {
    return Status::InvalidArgument(
        "BuildMultiDiskProgram: frequency lcm too large");
  }

  // Global file table plus per-disk page lists (file index per slot).
  std::vector<ProgramFile> files;
  struct DiskLayout {
    std::vector<FileIndex> pages;
    std::uint64_t chunks = 1;      // C_i = lcm / f_i.
    std::uint64_t chunk_size = 0;  // Pages per chunk (after padding).
  };
  std::vector<DiskLayout> layouts;
  for (const DiskSpec& d : disks) {
    DiskLayout layout;
    for (const FlatFileSpec& f : d.files) {
      if (f.m == 0 || f.n < f.m) {
        return Status::InvalidArgument(
            "BuildMultiDiskProgram: file '" + f.name + "' malformed");
      }
      const auto index = static_cast<FileIndex>(files.size());
      files.push_back(ProgramFile{f.name, f.m, f.n, f.latency_slots});
      for (std::uint32_t k = 0; k < f.m; ++k) layout.pages.push_back(index);
    }
    layout.chunks = lcm / d.relative_frequency;
    layout.chunk_size =
        (layout.pages.size() + layout.chunks - 1) / layout.chunks;
    // Pad the page list to a whole number of chunks with idle pages.
    layout.pages.resize(layout.chunks * layout.chunk_size,
                        BroadcastProgram::kIdleSlot);
    layouts.push_back(std::move(layout));
  }

  // Minor cycle j (j = 0..lcm-1): chunk (j mod C_i) of every disk, in disk
  // order.
  std::vector<FileIndex> slots;
  for (std::uint64_t j = 0; j < lcm; ++j) {
    for (const DiskLayout& layout : layouts) {
      const std::uint64_t chunk = j % layout.chunks;
      const std::uint64_t begin = chunk * layout.chunk_size;
      for (std::uint64_t k = 0; k < layout.chunk_size; ++k) {
        slots.push_back(layout.pages[begin + k]);
      }
    }
  }

  std::uint64_t minor_slots = 0;
  for (const DiskLayout& layout : layouts) minor_slots += layout.chunk_size;

  BDISK_ASSIGN_OR_RETURN(
      BroadcastProgram program,
      BroadcastProgram::Create(std::move(files), std::move(slots)));
  return MultiDiskProgram{std::move(program),
                          static_cast<std::uint32_t>(lcm), minor_slots};
}

double MeanRetrievalLatency(const BroadcastProgram& program, FileIndex file) {
  BDISK_CHECK(file < program.file_count());
  const std::uint32_t m = program.files()[file].m;
  // A start's completion is its m-th transmission (any m consecutive ones
  // carry distinct blocks, as n >= m), and completion - start repeats every
  // period. The sums are exact integers, so one period's mean is the data
  // cycle's to the bit.
  double total = 0.0;
  for (std::uint64_t s = 0; s < program.period(); ++s) {
    const std::uint64_t completion = program.SlotOfTransmission(
        file, program.TransmissionAtOrAfter(file, s) + m - 1);
    total += static_cast<double>(completion - s + 1);
  }
  return total / static_cast<double>(program.period());
}

}  // namespace bdisk::broadcast
