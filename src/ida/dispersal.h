/// \file dispersal.h
/// \brief Rabin's Information Dispersal Algorithm (IDA), paper Section 2.1.
///
/// A file F of m blocks is processed into N >= m blocks such that any m of
/// the N suffice to reconstruct F. Dispersal is the matrix product
/// [x_ij]_{N x m} * [A_1 .. A_m]^T per byte column; reconstruction selects
/// the m rows corresponding to the received blocks, inverts that square
/// matrix, and multiplies (Figure 3 of the paper).
///
/// The dispersal matrix is systematic (first m rows = identity) and built
/// from a Cauchy matrix, so the "any m rows are mutually independent"
/// requirement of the paper holds; the systematic prefix additionally makes
/// the first m dispersed blocks literal copies of the data blocks, which is
/// convenient for incremental reads and matches the paper's Figure 6 example
/// (blocks A'_1..A'_10 where any 5 reconstruct A).
///
/// Because a received data block already is its row of the file, a
/// reconstruction costs only its erased rows: received data rows are copied
/// (or, in sim::ReconstructingClient, collected) in place, and each erased
/// row is the product of its row of the cached inverse with the m received
/// blocks (SolveErasures). A retrieval that receives every data block does
/// no field arithmetic at all.
///
/// The products run as one fused matrix-block kernel call
/// (GFBulk::MatrixMulAccumulate, gf/gf_bulk.h), dispatched at runtime to
/// the fastest GF(2^8) implementation the CPU supports (GFNI's
/// VGF2P8MULB, SSSE3/AVX2/NEON nibble-table shuffles, or the portable
/// product-table fallback), with coefficient-1 terms lowered to
/// vector-wide XOR.

#ifndef BDISK_IDA_DISPERSAL_H_
#define BDISK_IDA_DISPERSAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "common/status.h"
#include "gf/matrix.h"
#include "ida/block.h"

namespace bdisk::runtime {
class ThreadPool;
}  // namespace bdisk::runtime

namespace bdisk::ida {

/// \brief Dispersal engine for a fixed geometry (m data blocks, N dispersed
/// blocks, fixed block size in bytes).
///
/// Safe for concurrent const use: Disperse/Reconstruct (and the batch
/// variants) may run on many threads against one engine. Reconstruction
/// caches inverse matrices per row subset (the paper: "the inverse
/// transformation could be precomputed for some or even all possible
/// subsets of m rows"); the cache is internally synchronized.
class Dispersal {
 public:
  /// Most dispersed blocks a geometry can have over GF(2^8), n <= 256; the
  /// codec's per-stripe pointer arrays live on the stack at this size.
  static constexpr std::size_t kMaxBlocks = 256;

  /// Creates an engine. Requirements: 1 <= m <= n <= 255 + ... (n - m
  /// parity rows + m <= 256), block_size >= 1.
  static Result<Dispersal> Create(std::uint32_t m, std::uint32_t n,
                                  std::size_t block_size);

  /// Number of blocks sufficient to reconstruct (m).
  std::uint32_t reconstruct_threshold() const { return m_; }
  /// Total number of dispersed blocks (N).
  std::uint32_t total_blocks() const { return n_; }
  /// Payload bytes per block.
  std::size_t block_size() const { return block_size_; }

  /// \brief Disperses a file into N self-identifying blocks, stamped with
  /// `version` (the file's update generation).
  ///
  /// `file` must be exactly m * block_size bytes (callers pad; the library
  /// does not guess an encoding for partial trailing blocks).
  Result<std::vector<Block>> Disperse(FileId file_id,
                                      const std::vector<std::uint8_t>& file,
                                      std::uint64_t version = 0) const;

  /// \brief Reconstructs the original file from any >= m distinct blocks.
  ///
  /// The first m distinct valid blocks are used: blocks with duplicate
  /// indices are ignored after the first occurrence; blocks whose header
  /// does not match this geometry are rejected, and so are mixed versions
  /// (a linear combination only inverts against one consistent snapshot).
  /// Fails with DataLoss if fewer than m distinct valid blocks are
  /// supplied. The received data blocks are copied to their offsets and
  /// only the erased data rows are solved (SolveErasures).
  Result<std::vector<std::uint8_t>> Reconstruct(
      const std::vector<Block>& blocks) const;

  /// \brief The erasure solve behind every reconstruction: writes the
  /// erased data rows of one stripe in place.
  ///
  /// `received` lists the m distinct block indices held, in ascending
  /// order; `parity[i]` is the payload of the i-th received parity block
  /// (index >= m), in that same order. `file` is the stripe, m *
  /// block_size bytes: each received data row j < m already holds data
  /// block j, and each erased data row is zero. Each erased row becomes
  /// the product of its row of the inverse for `received` (cached per
  /// subset) with the received blocks; received rows are only read. With
  /// no erased row this returns at once and allocates nothing. Fails with
  /// InvalidArgument unless `received` is strictly ascending and below n.
  Status SolveErasures(const std::size_t* received,
                       const std::uint8_t* const* parity,
                       std::uint8_t* file) const;

  /// \brief Batched dispersal of a large file.
  ///
  /// `file` must be a non-empty multiple of m * block_size bytes; each
  /// m * block_size stripe is dispersed independently — fanned out across
  /// `pool` when non-null — and returned in file order. Stripe identity is
  /// positional: all stripes share `file_id` and `version`, so blocks of
  /// different stripes must not be mixed in one Reconstruct call; keep the
  /// per-stripe grouping (as ReconstructBatch does).
  ///
  /// Deterministic: the output is byte-identical for any pool size,
  /// including the serial path (pool == nullptr).
  Result<std::vector<std::vector<Block>>> DisperseBatch(
      FileId file_id, const std::vector<std::uint8_t>& file,
      std::uint64_t version = 0, runtime::ThreadPool* pool = nullptr) const;

  /// \brief Inverse of DisperseBatch: reconstructs every stripe (each needs
  /// >= m distinct valid blocks, checked per stripe) — fanned out across
  /// `pool` when non-null — and concatenates the stripes in order.
  Result<std::vector<std::uint8_t>> ReconstructBatch(
      const std::vector<std::vector<Block>>& stripes,
      runtime::ThreadPool* pool = nullptr) const;

  /// Number of distinct inverse matrices cached so far.
  std::size_t cached_inverse_count() const {
    std::shared_lock<std::shared_mutex> lock(inverse_cache_->mu);
    return inverse_cache_->entries.size();
  }

 private:
  // Cache of inverse reconstruction matrices keyed by sorted row subset.
  // Read-mostly after warmup, so lookups take the lock shared and only
  // inserts take it exclusive — concurrent batch reconstruction does not
  // serialize on cache hits. Heap-allocated so the engine stays movable
  // despite the mutex; entries are never erased, so pointers into the map
  // remain valid while other threads insert.
  struct InverseCache {
    mutable std::shared_mutex mu;
    std::map<std::vector<std::size_t>, gf::Matrix> entries;
  };

  Dispersal(std::uint32_t m, std::uint32_t n, std::size_t block_size,
            gf::Matrix dispersal_matrix)
      : m_(m), n_(n), block_size_(block_size),
        dispersal_matrix_(std::move(dispersal_matrix)),
        inverse_cache_(std::make_unique<InverseCache>()) {}

  /// Disperses one m * block_size stripe into `out` (resized to N blocks).
  void DisperseStripe(FileId file_id, const std::uint8_t* stripe,
                      std::uint64_t version, std::vector<Block>* out) const;

  /// Reconstructs one stripe into `dst` (m * block_size bytes, zeroed):
  /// selects the blocks, copies the received data rows in place and solves
  /// the rest.
  Status ReconstructInto(const std::vector<Block>& blocks,
                         std::uint8_t* dst) const;

  /// The inverse of the dispersal rows `received` (m ascending indices),
  /// from the cache or computed and cached.
  Result<const gf::Matrix*> InverseOf(const std::size_t* received) const;

  std::uint32_t m_;
  std::uint32_t n_;
  std::size_t block_size_;
  gf::Matrix dispersal_matrix_;
  std::unique_ptr<InverseCache> inverse_cache_;
};

}  // namespace bdisk::ida

#endif  // BDISK_IDA_DISPERSAL_H_
