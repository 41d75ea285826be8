/// \file dispersal_batch.cc
/// \brief Batched (multi-stripe) dispersal.
///
/// A file larger than one dispersal stripe (m * block_size bytes) is
/// processed as consecutive independent stripes, which fan out across a
/// runtime::ThreadPool: each stripe's matrix product touches disjoint
/// input/output ranges. Each stripe is reconstructed with its own
/// Reconstruct call, which may run concurrently with others on one engine:
/// their only shared state, the inverse-matrix cache, is synchronized.

#include "ida/dispersal.h"
#include "obs/registry.h"
#include "runtime/parallel_for.h"

namespace bdisk::ida {

Result<std::vector<std::vector<Block>>> Dispersal::DisperseBatch(
    FileId file_id, const std::vector<std::uint8_t>& file,
    std::uint64_t version, runtime::ThreadPool* pool) const {
  const std::size_t stripe_bytes = static_cast<std::size_t>(m_) * block_size_;
  if (file.empty() || file.size() % stripe_bytes != 0) {
    return Status::InvalidArgument(
        "DisperseBatch: file must be a non-empty multiple of m * block_size "
        "= " +
        std::to_string(stripe_bytes) + " bytes, got " +
        std::to_string(file.size()));
  }
  const std::size_t stripe_count = file.size() / stripe_bytes;
  std::vector<std::vector<Block>> out(stripe_count);
  // Batch-granularity instrumentation: one timer around the whole fan-out,
  // never inside the stripe loop.
  obs::ScopedPhaseTimer timer(obs::GlobalRegistry().GetHistogram(
      "phase.encode_us", obs::PhaseTimerBoundsUs()));
  obs::GlobalRegistry().GetCounter("ida.encode_bytes")->Add(file.size());
  runtime::ParallelFor(
      pool, stripe_count, runtime::ShardCountFor(pool, stripe_count),
      [&](unsigned, runtime::ShardRange range) {
        for (std::uint64_t s = range.begin; s < range.end; ++s) {
          DisperseStripe(file_id, file.data() + s * stripe_bytes, version,
                         &out[s]);
        }
      });
  return out;
}

}  // namespace bdisk::ida
