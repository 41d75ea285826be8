#include "adaptive/program_optimizer.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <unordered_map>

#include "bdisk/multi_disk.h"
#include "common/check.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace bdisk::adaptive {

namespace {

/// Frequency-class counts tried, one candidate each; 1 class is the flat
/// baseline.
constexpr std::uint32_t kClassCounts[] = {1, 2, 3, 4};
/// Fastest relative frequency a class may spin at.
constexpr std::uint32_t kMaxRelativeFrequency = 8;

/// Rebuilds `program` with its files permuted into `canonical` order (and
/// the canonical latency vectors), matching by name. The multi-disk builder
/// orders files by disk; hot-swap compatibility requires the canonical
/// index order, under which a file keeps its ida::FileId across epochs.
Result<broadcast::BroadcastProgram> RemapToCanonicalOrder(
    const broadcast::BroadcastProgram& program,
    const std::vector<broadcast::FlatFileSpec>& canonical) {
  std::unordered_map<std::string, broadcast::FileIndex> index_of;
  std::vector<broadcast::ProgramFile> files;
  files.reserve(canonical.size());
  for (std::size_t f = 0; f < canonical.size(); ++f) {
    index_of.emplace(canonical[f].name,
                     static_cast<broadcast::FileIndex>(f));
    files.push_back(broadcast::ProgramFile{canonical[f].name, canonical[f].m,
                                           canonical[f].n,
                                           canonical[f].latency_slots});
  }
  std::vector<broadcast::FileIndex> slots;
  slots.reserve(program.period());
  for (broadcast::FileIndex built : program.slots()) {
    if (built == broadcast::BroadcastProgram::kIdleSlot) {
      slots.push_back(broadcast::BroadcastProgram::kIdleSlot);
      continue;
    }
    const auto it = index_of.find(program.files()[built].name);
    if (it == index_of.end()) {
      return Status::Internal(
          "ProgramOptimizer: built program names unknown file '" +
          program.files()[built].name + "'");
    }
    slots.push_back(it->second);
  }
  return broadcast::BroadcastProgram::Create(std::move(files),
                                             std::move(slots));
}

}  // namespace

Result<ProgramScore> EvaluateProgram(const broadcast::BroadcastProgram& program,
                                     const std::vector<double>& demand) {
  if (demand.size() != program.file_count()) {
    return Status::InvalidArgument(
        "EvaluateProgram: demand has " + std::to_string(demand.size()) +
        " entries for " + std::to_string(program.file_count()) + " files");
  }
  ProgramScore score;
  for (broadcast::FileIndex f = 0; f < program.file_count(); ++f) {
    score.expected_mean_delay +=
        demand[f] * broadcast::MeanRetrievalLatency(program, f);
  }
  return score;
}

Result<ProgramOptimizer> ProgramOptimizer::Create(
    std::vector<broadcast::FlatFileSpec> files) {
  if (files.empty()) {
    return Status::InvalidArgument("ProgramOptimizer: no files");
  }
  std::unordered_map<std::string, std::size_t> seen;
  for (std::size_t f = 0; f < files.size(); ++f) {
    if (files[f].m == 0 || files[f].n < files[f].m) {
      return Status::InvalidArgument("ProgramOptimizer: file '" +
                                     files[f].name + "' malformed (m=" +
                                     std::to_string(files[f].m) + ", n=" +
                                     std::to_string(files[f].n) + ")");
    }
    if (!seen.emplace(files[f].name, f).second) {
      return Status::InvalidArgument(
          "ProgramOptimizer: duplicate file name '" + files[f].name + "'");
    }
  }
  return ProgramOptimizer(std::move(files));
}

Result<broadcast::BroadcastProgram> ProgramOptimizer::BuildCandidate(
    const std::vector<double>& demand, std::uint32_t class_count) const {
  // Square-root-rule targets: frequency proportional to sqrt(p_i / m_i).
  std::vector<double> target(files_.size());
  double max_target = 0.0;
  for (std::size_t f = 0; f < files_.size(); ++f) {
    target[f] = std::sqrt(std::max(demand[f], 0.0) /
                          static_cast<double>(files_[f].m));
    max_target = std::max(max_target, target[f]);
  }
  if (max_target <= 0.0) max_target = 1.0;

  // Geometric frequency levels, fastest first: 2^(k-1), ..., 2, 1 (capped).
  std::vector<std::uint32_t> level_freq(class_count);
  for (std::uint32_t c = 0; c < class_count; ++c) {
    level_freq[c] = std::min<std::uint32_t>(1u << (class_count - 1 - c),
                                            kMaxRelativeFrequency);
  }

  // Nearest level in log-frequency space; canonical file order within each
  // disk keeps the construction deterministic.
  std::vector<broadcast::DiskSpec> disks(class_count);
  for (std::uint32_t c = 0; c < class_count; ++c) {
    disks[c].relative_frequency = level_freq[c];
  }
  const double fastest = static_cast<double>(level_freq.front());
  for (std::size_t f = 0; f < files_.size(); ++f) {
    const double ideal = fastest * target[f] / max_target;
    std::uint32_t best_level = class_count - 1;  // Zero demand: slowest.
    if (ideal > 0.0) {
      double best_dist = 0.0;
      for (std::uint32_t c = 0; c < class_count; ++c) {
        const double dist = std::fabs(std::log(ideal) -
                                      std::log(static_cast<double>(
                                          level_freq[c])));
        if (c == 0 || dist < best_dist) {
          best_dist = dist;
          best_level = c;
        }
      }
    }
    disks[best_level].files.push_back(files_[f]);
  }
  // Drop empty disks (the builder requires every disk to hold a file).
  std::vector<broadcast::DiskSpec> populated;
  for (broadcast::DiskSpec& d : disks) {
    if (!d.files.empty()) populated.push_back(std::move(d));
  }
  BDISK_ASSIGN_OR_RETURN(broadcast::MultiDiskProgram built,
                         broadcast::BuildMultiDiskProgram(populated));
  return RemapToCanonicalOrder(built.program, files_);
}

Result<OptimizedProgram> ProgramOptimizer::Optimize(
    const std::vector<double>& demand, runtime::ThreadPool* pool) const {
  if (demand.size() != files_.size()) {
    return Status::InvalidArgument(
        "ProgramOptimizer: demand has " + std::to_string(demand.size()) +
        " entries for " + std::to_string(files_.size()) + " files");
  }

  // Build and score every candidate; candidates are independent, so shard
  // them across the pool. Failures are kept per candidate and judged
  // serially afterwards — selection is identical at any thread count.
  constexpr std::size_t candidates = std::size(kClassCounts);
  std::vector<Result<OptimizedProgram>> scored(
      candidates, Status::Internal("ProgramOptimizer: candidate not built"));
  runtime::ParallelFor(
      pool, candidates, runtime::ShardCountFor(pool, candidates),
      [&](unsigned, runtime::ShardRange range) {
        for (std::uint64_t c = range.begin; c < range.end; ++c) {
          const std::uint32_t k = kClassCounts[c];
          auto program = BuildCandidate(demand, k);
          if (!program.ok()) {
            scored[c] = program.status();
            continue;
          }
          auto score = EvaluateProgram(*program, demand);
          if (!score.ok()) {
            scored[c] = score.status();
            continue;
          }
          scored[c] = OptimizedProgram{std::move(*program), *score, k,
                                       static_cast<std::size_t>(c)};
        }
      });

  std::size_t best = candidates;  // Sentinel: none selected yet.
  for (std::size_t c = 0; c < candidates; ++c) {
    if (!scored[c].ok()) continue;
    if (best == candidates || scored[c]->score.expected_mean_delay <
                                  scored[best]->score.expected_mean_delay) {
      best = c;
    }
  }
  // Every candidate failed: report the first failure.
  if (best == candidates) return scored.front().status();
  return std::move(scored[best]);
}

}  // namespace bdisk::adaptive
