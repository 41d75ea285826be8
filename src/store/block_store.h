/// \file block_store.h
/// \brief Crash-safe persistent store for dispersed broadcast blocks.
///
/// The store keeps every coded block of every (file, version) pair on a
/// fixed-geometry BlockDevice, with a catalog committed by a two-version
/// superblock swap — the durable twin of the epoch hot-swap contract
/// (sim/epoch.h): the committed generation stays fully readable while the
/// next one is staged, and a single atomic flip makes the new generation
/// current. A crash at ANY write boundary recovers to exactly the old or
/// the new generation, never a torn hybrid.
///
/// On-disk layout (all integers little-endian):
///
///   block 0, block 1   superblock slots. The writer of generation g uses
///                      slot g % 2, so the previous generation's
///                      superblock is never overwritten by the commit that
///                      supersedes it. Each superblock (56 bytes, padded
///                      to one device block):
///                        [ 0] magic            u64  "BDSKSTR1"
///                        [ 8] format           u32  (= 1)
///                        [12] block_size       u32  device sector bytes
///                        [16] block_count      u64  device sectors
///                        [24] generation       u64
///                        [32] catalog_first    u64  catalog extent start
///                        [40] catalog_bytes    u64  catalog blob length
///                        [48] catalog_crc      u32  CRC-32C of the blob
///                        [52] superblock_crc   u32  CRC-32C of bytes [0,52)
///   block 2 ..         data and catalog extents, allocated first-fit from
///                      the free-space bitmap.
///
/// Catalog blob:
///
///   u64 entry_count
///   entry_count x (sorted by (file_id, version)):
///     u32 file_id, u64 version, u32 m, u32 n, u64 payload_bytes,
///     n x { u64 first_block, u32 checksum }
///
/// Each coded block's payload occupies ceil(payload_bytes / block_size)
/// contiguous device blocks; its header is not stored — it is
/// reconstituted from the catalog entry, and `checksum` is the same
/// CRC-32C wire stamp (ida::BlockChecksum) the broadcast server transmits,
/// so a block read from disk is verified by exactly the code path a client
/// uses on a corrupting channel. Every persisted byte is covered by a
/// CRC: coded payloads by the block stamp, the catalog blob by
/// catalog_crc, the superblock by superblock_crc.
///
/// Crash-safety argument (the recovery sweep in
/// tests/store_crash_sweep_test.cc checks it at every write boundary):
///
///  1. Shadow paging: staged writes (coded payloads, the new catalog
///     blob) go only to blocks FREE in the committed bitmap, and blocks
///     freed by a staged erase are not reusable until after the commit —
///     so no pre-flip write can touch a byte the committed generation
///     depends on.
///  2. The flip is a single-sector superblock write to the slot the
///     committed superblock does NOT occupy, fenced by Sync on both
///     sides. If it tears, its CRC fails and recovery selects the other
///     slot — the old generation, intact by (1).
///  3. Open reads both slots and adopts the highest-generation candidate
///     whose superblock CRC, catalog CRC, catalog parse, and allocation
///     consistency all validate.
///
/// The free-space bitmap is derived state, rebuilt from the catalog at
/// Open and after every commit — it is never persisted, so it can never
/// disagree with the catalog.

#ifndef BDISK_STORE_BLOCK_STORE_H_
#define BDISK_STORE_BLOCK_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ida/block.h"
#include "store/bitmap.h"
#include "store/block_device.h"

namespace bdisk::store {

/// \brief On-disk location and wire checksum of one coded block.
struct CodedBlockRef {
  std::uint64_t first_block = 0;
  std::uint32_t checksum = 0;

  bool operator==(const CodedBlockRef&) const = default;
};

/// \brief One catalog entry: the n coded blocks of (file_id, version).
struct CatalogEntry {
  ida::FileId file_id = ida::kInvalidFileId;
  std::uint64_t version = 0;
  std::uint32_t m = 0;  ///< reconstruction threshold
  std::uint32_t n = 0;  ///< total dispersed blocks
  std::uint64_t payload_bytes = 0;  ///< per coded block
  std::vector<CodedBlockRef> blocks;  ///< n entries

  bool operator==(const CatalogEntry&) const = default;

  /// Device blocks one coded payload occupies, ceil(payload_bytes /
  /// device_block_size), without wrapping for any payload_bytes.
  std::uint64_t BlocksPerCoded(std::size_t device_block_size) const {
    return payload_bytes / device_block_size +
           (payload_bytes % device_block_size != 0 ? 1 : 0);
  }
};

/// Catalog key: (file_id, version).
using CatalogKey = std::pair<ida::FileId, std::uint64_t>;
using Catalog = std::map<CatalogKey, CatalogEntry>;

/// \brief Point-in-time store counters (bdisk_planner --store prints them).
struct StoreStats {
  std::uint64_t generation = 0;
  std::uint64_t entries = 0;
  std::uint64_t total_blocks = 0;
  std::uint64_t free_blocks = 0;
  std::size_t block_size = 0;

  std::string ToString() const;
};

/// \brief The crash-safe block store.
///
/// Mutation protocol: StageFile / StageErase accumulate a transaction
/// against the committed catalog; Commit makes it durable with the
/// two-version swap; Abort discards it. Reads always serve the committed
/// generation. Not thread-safe; the simulator's determinism layer owns
/// serialization, as everywhere else in the codebase.
class BlockStore {
 public:
  /// Minimum device block size (the superblock must fit in one sector).
  static constexpr std::size_t kMinBlockSize = 64;
  /// First allocatable device block (0 and 1 are superblock slots).
  static constexpr std::uint64_t kFirstDataBlock = 2;

  /// Initializes `device` with an empty generation-1 catalog. Any previous
  /// store content on the device is destroyed.
  static Result<std::unique_ptr<BlockStore>> Format(
      std::unique_ptr<BlockDevice> device);

  /// Opens an existing store, running recovery: both superblock slots are
  /// read and the highest fully-validating generation is adopted. Fails
  /// with DataLoss if neither validates.
  static Result<std::unique_ptr<BlockStore>> Open(
      std::unique_ptr<BlockDevice> device);

  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  /// Stages the coded blocks of one (file, version). All blocks must share
  /// one header geometry, be stamped (checksum != 0), and the key must not
  /// already be staged. Payload data is written to committed-free device
  /// blocks immediately; the entry becomes readable only after Commit.
  Status StageFile(const std::vector<ida::Block>& coded);

  /// Stages removal of (file_id, version). Its blocks become reusable
  /// only after Commit — never within the staging transaction.
  Status StageErase(ida::FileId file_id, std::uint64_t version);

  /// Durably commits the staged transaction (catalog write + fenced
  /// superblock swap). On failure the store is poisoned: further staging
  /// and commits are rejected until Abort; reads stay on the committed
  /// generation, which is intact by construction.
  Status Commit();

  /// Discards the staged transaction (and clears a commit-failure poison).
  void Abort();

  /// Reads coded block `block_index` of (file_id, version) from the
  /// committed catalog, reconstitutes its header, and verifies the wire
  /// checksum — a damaged sector surfaces as a typed DataLoss, never as
  /// decoded garbage.
  Result<ida::Block> ReadCodedBlock(ida::FileId file_id,
                                    std::uint64_t version,
                                    std::uint32_t block_index) const;

  /// Committed entry lookup; nullptr if absent.
  const CatalogEntry* FindEntry(ida::FileId file_id,
                                std::uint64_t version) const;

  const Catalog& catalog() const { return committed_; }
  std::uint64_t generation() const { return generation_; }
  bool dirty() const { return dirty_; }
  bool poisoned() const { return poisoned_; }

  StoreStats Stats() const;

  /// The underlying device (tests reach through to the fault layer).
  BlockDevice* device() { return device_.get(); }

 private:
  explicit BlockStore(std::unique_ptr<BlockDevice> device)
      : device_(std::move(device)),
        committed_used_(device_->block_count()),
        staged_used_(device_->block_count()) {}

  /// Rebuilds `committed_used_` from `committed_` (+ superblocks and the
  /// committed catalog extent) and resets the staged bitmap to match.
  void RebuildBitmaps();

  /// Writes `bytes` to the extent starting at `first`, zero-padding the
  /// final sector.
  IoResult WriteExtent(std::uint64_t first, const std::uint8_t* bytes,
                       std::uint64_t len);
  /// Reads `len` bytes from the extent starting at `first`.
  IoResult ReadExtent(std::uint64_t first, std::uint8_t* bytes,
                      std::uint64_t len) const;

  std::unique_ptr<BlockDevice> device_;
  std::uint64_t generation_ = 0;
  /// Extent of the committed catalog blob (tracked so the bitmap rebuild
  /// can reserve it).
  std::uint64_t catalog_first_ = 0;
  std::uint64_t catalog_bytes_ = 0;

  Catalog committed_;
  Catalog staged_;
  FreeBitmap committed_used_;
  FreeBitmap staged_used_;
  bool dirty_ = false;
  bool poisoned_ = false;
};

}  // namespace bdisk::store

#endif  // BDISK_STORE_BLOCK_STORE_H_
