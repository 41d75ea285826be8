#include "store/block_store.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/crc32c.h"

namespace bdisk::store {

namespace {

constexpr std::uint8_t kMagic[8] = {'B', 'D', 'S', 'K', 'S', 'T', 'R', '1'};
constexpr std::uint32_t kFormat = 1;
constexpr std::size_t kSuperblockBytes = 56;
constexpr std::size_t kSuperblockCrcOffset = 52;

void PutU32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void PutU64(std::uint8_t* p, std::uint64_t v) {
  PutU32(p, static_cast<std::uint32_t>(v));
  PutU32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t GetU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t GetU64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(GetU32(p)) |
         static_cast<std::uint64_t>(GetU32(p + 4)) << 32;
}

/// In-memory form of one superblock slot.
struct Superblock {
  std::uint64_t generation = 0;
  std::uint64_t catalog_first = 0;
  std::uint64_t catalog_bytes = 0;
  std::uint32_t catalog_crc = 0;
};

/// Serializes `sb` into a full device sector (tail zero-padded).
std::vector<std::uint8_t> SerializeSuperblock(const Superblock& sb,
                                              std::size_t block_size,
                                              std::uint64_t block_count) {
  std::vector<std::uint8_t> sector(block_size, 0);
  std::memcpy(sector.data(), kMagic, 8);
  PutU32(sector.data() + 8, kFormat);
  PutU32(sector.data() + 12, static_cast<std::uint32_t>(block_size));
  PutU64(sector.data() + 16, block_count);
  PutU64(sector.data() + 24, sb.generation);
  PutU64(sector.data() + 32, sb.catalog_first);
  PutU64(sector.data() + 40, sb.catalog_bytes);
  PutU32(sector.data() + 48, sb.catalog_crc);
  PutU32(sector.data() + kSuperblockCrcOffset,
         Crc32c(sector.data(), kSuperblockCrcOffset));
  return sector;
}

/// Parses a superblock sector; false if magic/format/geometry/CRC reject.
bool ParseSuperblock(const std::uint8_t* sector, std::size_t block_size,
                     std::uint64_t block_count, Superblock* out) {
  if (std::memcmp(sector, kMagic, 8) != 0) return false;
  if (GetU32(sector + 8) != kFormat) return false;
  if (GetU32(sector + 12) != block_size) return false;
  if (GetU64(sector + 16) != block_count) return false;
  if (GetU32(sector + kSuperblockCrcOffset) !=
      Crc32c(sector, kSuperblockCrcOffset)) {
    return false;
  }
  out->generation = GetU64(sector + 24);
  out->catalog_first = GetU64(sector + 32);
  out->catalog_bytes = GetU64(sector + 40);
  out->catalog_crc = GetU32(sector + 48);
  return true;
}

constexpr std::size_t kEntryFixedBytes = 4 + 8 + 4 + 4 + 8;
constexpr std::size_t kRefBytes = 8 + 4;

std::vector<std::uint8_t> SerializeCatalog(const Catalog& catalog) {
  std::size_t bytes = 8;
  for (const auto& [key, entry] : catalog) {
    bytes += kEntryFixedBytes + entry.blocks.size() * kRefBytes;
  }
  std::vector<std::uint8_t> blob(bytes);
  std::uint8_t* p = blob.data();
  PutU64(p, catalog.size());
  p += 8;
  // std::map iteration order IS (file_id, version) order — the serialized
  // catalog is canonical, so identical contents produce identical bytes.
  for (const auto& [key, entry] : catalog) {
    PutU32(p, entry.file_id);
    PutU64(p + 4, entry.version);
    PutU32(p + 12, entry.m);
    PutU32(p + 16, entry.n);
    PutU64(p + 20, entry.payload_bytes);
    p += kEntryFixedBytes;
    for (const CodedBlockRef& ref : entry.blocks) {
      PutU64(p, ref.first_block);
      PutU32(p + 8, ref.checksum);
      p += kRefBytes;
    }
  }
  BDISK_CHECK(p == blob.data() + blob.size());
  return blob;
}

/// Bounds-checked catalog parse against the device's geometry; every
/// malformation is a typed DataLoss.
Result<Catalog> ParseCatalog(const std::vector<std::uint8_t>& blob,
                             std::size_t block_size,
                             std::uint64_t block_count) {
  const auto corrupt = [](const std::string& what) -> Status {
    return Status::DataLoss("block store catalog: " + what);
  };
  if (blob.size() < 8) return corrupt("blob shorter than its entry count");
  const std::uint8_t* p = blob.data();
  const std::uint8_t* end = blob.data() + blob.size();
  const std::uint64_t count = GetU64(p);
  p += 8;
  Catalog catalog;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (static_cast<std::size_t>(end - p) < kEntryFixedBytes) {
      return corrupt("truncated entry header");
    }
    CatalogEntry entry;
    entry.file_id = GetU32(p);
    entry.version = GetU64(p + 4);
    entry.m = GetU32(p + 12);
    entry.n = GetU32(p + 16);
    entry.payload_bytes = GetU64(p + 20);
    p += kEntryFixedBytes;
    if (entry.n == 0 || entry.m == 0 || entry.m > entry.n) {
      return corrupt("entry with invalid geometry m=" +
                     std::to_string(entry.m) + " n=" +
                     std::to_string(entry.n));
    }
    // A payload longer than the device could never be read back, and
    // reading it would allocate payload_bytes.
    if (entry.BlocksPerCoded(block_size) > block_count) {
      return corrupt("entry for file " + std::to_string(entry.file_id) +
                     " v" + std::to_string(entry.version) + " has " +
                     std::to_string(entry.payload_bytes) +
                     "-byte payloads, more than the device holds");
    }
    if (static_cast<std::size_t>(end - p) <
        static_cast<std::size_t>(entry.n) * kRefBytes) {
      return corrupt("truncated block reference list");
    }
    entry.blocks.reserve(entry.n);
    for (std::uint32_t b = 0; b < entry.n; ++b) {
      CodedBlockRef ref;
      ref.first_block = GetU64(p);
      ref.checksum = GetU32(p + 8);
      p += kRefBytes;
      entry.blocks.push_back(ref);
    }
    const CatalogKey key{entry.file_id, entry.version};
    if (!catalog.emplace(key, std::move(entry)).second) {
      return corrupt("duplicate entry for file " +
                     std::to_string(key.first) + " v" +
                     std::to_string(key.second));
    }
  }
  if (p != end) return corrupt("trailing bytes after last entry");
  return catalog;
}

/// Marks one entry's extents in `bitmap`; false on out-of-range or
/// double allocation (both impossible for a store we wrote — their
/// presence means the catalog lies, so recovery must reject it).
bool MarkEntry(const CatalogEntry& entry, std::size_t block_size,
               FreeBitmap* bitmap) {
  const std::uint64_t run = entry.BlocksPerCoded(block_size);
  for (const CodedBlockRef& ref : entry.blocks) {
    if (ref.first_block < BlockStore::kFirstDataBlock ||
        ref.first_block > bitmap->size() ||
        run > bitmap->size() - ref.first_block ||
        bitmap->AnySet(ref.first_block, run)) {
      return false;
    }
    bitmap->SetRun(ref.first_block, run);
  }
  return true;
}

/// ceil(bytes / block_size), without wrapping for any `bytes`.
std::uint64_t ExtentBlocks(std::uint64_t bytes, std::size_t block_size) {
  return bytes / block_size + (bytes % block_size != 0 ? 1 : 0);
}

}  // namespace

std::string StoreStats::ToString() const {
  return "generation=" + std::to_string(generation) +
         " entries=" + std::to_string(entries) +
         " blocks=" + std::to_string(total_blocks - free_blocks) + "/" +
         std::to_string(total_blocks) +
         " block_size=" + std::to_string(block_size);
}

// Full sectors move straight between the device and the caller's buffer;
// only a partial tail sector goes through a scratch sector. Either way it
// is one device call per sector in sector order, the write boundaries the
// crash sweep enumerates.
IoResult BlockStore::WriteExtent(std::uint64_t first,
                                 const std::uint8_t* bytes,
                                 std::uint64_t len) {
  const std::size_t bs = device_->block_size();
  const std::uint64_t full = len / bs;
  for (std::uint64_t i = 0; i < full; ++i) {
    const IoResult r = device_->WriteBlock(first + i, bytes + i * bs);
    if (!r.ok()) return r;
  }
  const auto tail = static_cast<std::size_t>(len % bs);
  if (tail == 0) return IoResult::Ok();
  std::vector<std::uint8_t> sector(bs, 0);
  std::memcpy(sector.data(), bytes + full * bs, tail);
  return device_->WriteBlock(first + full, sector.data());
}

IoResult BlockStore::ReadExtent(std::uint64_t first, std::uint8_t* bytes,
                                std::uint64_t len) const {
  const std::size_t bs = device_->block_size();
  const std::uint64_t full = len / bs;
  for (std::uint64_t i = 0; i < full; ++i) {
    const IoResult r = device_->ReadBlock(first + i, bytes + i * bs);
    if (!r.ok()) return r;
  }
  const auto tail = static_cast<std::size_t>(len % bs);
  if (tail == 0) return IoResult::Ok();
  std::vector<std::uint8_t> sector(bs);
  const IoResult r = device_->ReadBlock(first + full, sector.data());
  if (!r.ok()) return r;
  std::memcpy(bytes + full * bs, sector.data(), tail);
  return IoResult::Ok();
}

void BlockStore::RebuildBitmaps() {
  const std::size_t bs = device_->block_size();
  FreeBitmap used(device_->block_count());
  used.Set(0);
  used.Set(1);
  used.SetRun(catalog_first_, ExtentBlocks(catalog_bytes_, bs));
  for (const auto& [key, entry] : committed_) {
    BDISK_CHECK(MarkEntry(entry, bs, &used));
  }
  committed_used_ = used;
  staged_used_ = used;
}

Result<std::unique_ptr<BlockStore>> BlockStore::Format(
    std::unique_ptr<BlockDevice> device) {
  BDISK_CHECK(device != nullptr);
  if (device->block_size() < kMinBlockSize) {
    return Status::InvalidArgument(
        "block store: device block size " +
        std::to_string(device->block_size()) + " is below the minimum " +
        std::to_string(kMinBlockSize));
  }
  if (device->block_count() < kFirstDataBlock + 1) {
    return Status::InvalidArgument(
        "block store: device too small (" +
        std::to_string(device->block_count()) + " blocks)");
  }
  auto store = std::unique_ptr<BlockStore>(new BlockStore(std::move(device)));
  BlockDevice* dev = store->device_.get();
  const std::size_t bs = dev->block_size();

  // Invalidate the stale-generation slot first so a reused device file
  // cannot resurrect an old catalog.
  const std::vector<std::uint8_t> zeros(bs, 0);
  IoResult r = dev->WriteBlock(0, zeros.data());
  if (!r.ok()) return r.ToStatus("block store format");

  // Generation 1: an empty catalog at the first data block.
  const std::vector<std::uint8_t> blob = SerializeCatalog({});
  store->generation_ = 1;
  store->catalog_first_ = kFirstDataBlock;
  store->catalog_bytes_ = blob.size();
  r = store->WriteExtent(kFirstDataBlock, blob.data(), blob.size());
  if (!r.ok()) return r.ToStatus("block store format");
  r = dev->Sync();
  if (!r.ok()) return r.ToStatus("block store format");

  Superblock sb;
  sb.generation = 1;
  sb.catalog_first = kFirstDataBlock;
  sb.catalog_bytes = blob.size();
  sb.catalog_crc = Crc32c(blob.data(), blob.size());
  const std::vector<std::uint8_t> sector =
      SerializeSuperblock(sb, bs, dev->block_count());
  r = dev->WriteBlock(sb.generation % 2, sector.data());
  if (!r.ok()) return r.ToStatus("block store format");
  r = dev->Sync();
  if (!r.ok()) return r.ToStatus("block store format");

  store->RebuildBitmaps();
  return store;
}

Result<std::unique_ptr<BlockStore>> BlockStore::Open(
    std::unique_ptr<BlockDevice> device) {
  BDISK_CHECK(device != nullptr);
  if (device->block_size() < kMinBlockSize) {
    return Status::InvalidArgument(
        "block store: device block size " +
        std::to_string(device->block_size()) + " is below the minimum " +
        std::to_string(kMinBlockSize));
  }
  auto store = std::unique_ptr<BlockStore>(new BlockStore(std::move(device)));
  BlockDevice* dev = store->device_.get();
  const std::size_t bs = dev->block_size();
  const std::uint64_t count = dev->block_count();

  // Recovery: collect the candidate superblocks, newest generation first.
  std::vector<Superblock> candidates;
  std::vector<std::uint8_t> sector(bs);
  for (std::uint64_t slot = 0; slot < 2 && slot < count; ++slot) {
    const IoResult r = dev->ReadBlock(slot, sector.data());
    if (!r.ok()) return r.ToStatus("block store open");
    Superblock sb;
    if (ParseSuperblock(sector.data(), bs, count, &sb)) {
      candidates.push_back(sb);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Superblock& a, const Superblock& b) {
              return a.generation > b.generation;
            });

  // Adopt the newest candidate whose catalog fully validates. A torn or
  // lost catalog demotes us to the previous generation — never to a
  // hybrid.
  for (const Superblock& sb : candidates) {
    if (sb.catalog_first < kFirstDataBlock ||
        sb.catalog_first >= count ||
        ExtentBlocks(sb.catalog_bytes, bs) > count - sb.catalog_first) {
      continue;
    }
    std::vector<std::uint8_t> blob(sb.catalog_bytes);
    const IoResult r =
        store->ReadExtent(sb.catalog_first, blob.data(), blob.size());
    if (!r.ok()) {
      // A checksum-independent device error is not "this slot is stale";
      // surface it rather than silently falling back.
      return r.ToStatus("block store open");
    }
    if (Crc32c(blob.data(), blob.size()) != sb.catalog_crc) continue;
    Result<Catalog> catalog = ParseCatalog(blob, bs, count);
    if (!catalog.ok()) continue;
    // Allocation consistency: no entry may overlap another, the catalog
    // extent, or the superblocks.
    FreeBitmap used(count);
    used.Set(0);
    if (count > 1) used.Set(1);
    used.SetRun(sb.catalog_first, ExtentBlocks(sb.catalog_bytes, bs));
    bool consistent = true;
    for (const auto& [key, entry] : *catalog) {
      if (!MarkEntry(entry, bs, &used)) {
        consistent = false;
        break;
      }
    }
    if (!consistent) continue;

    store->generation_ = sb.generation;
    store->catalog_first_ = sb.catalog_first;
    store->catalog_bytes_ = sb.catalog_bytes;
    store->committed_ = std::move(*catalog);
    store->committed_used_ = used;
    store->staged_used_ = used;
    store->staged_ = store->committed_;
    return store;
  }
  return Status::DataLoss(
      "block store open: no superblock validates (device was never "
      "formatted, or both generations are damaged)");
}

Status BlockStore::StageFile(const std::vector<ida::Block>& coded) {
  if (poisoned_) {
    return Status::IoError(
        "block store: poisoned by a failed commit; Abort first");
  }
  if (coded.empty()) {
    return Status::InvalidArgument("block store: StageFile with no blocks");
  }
  const ida::BlockHeader& h0 = coded.front().header;
  if (h0.total_blocks != coded.size()) {
    return Status::InvalidArgument(
        "block store: header says n=" + std::to_string(h0.total_blocks) +
        " but " + std::to_string(coded.size()) + " blocks were staged");
  }
  const CatalogKey key{h0.file_id, h0.version};
  if (staged_.count(key) != 0) {
    return Status::InvalidArgument(
        "block store: file " + std::to_string(key.first) + " v" +
        std::to_string(key.second) + " is already present; StageErase first");
  }

  CatalogEntry entry;
  entry.file_id = h0.file_id;
  entry.version = h0.version;
  entry.m = h0.reconstruct_threshold;
  entry.n = h0.total_blocks;
  entry.payload_bytes = coded.front().payload.size();
  const std::size_t bs = device_->block_size();
  const std::uint64_t run = entry.BlocksPerCoded(bs);

  for (std::uint32_t i = 0; i < entry.n; ++i) {
    const ida::Block& block = coded[i];
    if (block.header.file_id != h0.file_id ||
        block.header.version != h0.version ||
        block.header.reconstruct_threshold != h0.reconstruct_threshold ||
        block.header.total_blocks != h0.total_blocks ||
        block.header.block_index != i) {
      return Status::InvalidArgument(
          "block store: staged blocks disagree on identity (" +
          block.header.ToString() + " vs " + h0.ToString() + ")");
    }
    if (block.payload.size() != entry.payload_bytes) {
      return Status::InvalidArgument(
          "block store: staged blocks have unequal payload sizes");
    }
    if (ida::VerifyChecksum(block) != ida::ChecksumState::kValid) {
      return Status::InvalidArgument(
          "block store: staged block is unstamped or corrupt (" +
          block.header.ToString() + ")");
    }
    // Shadow paging: the run comes from blocks free in the COMMITTED
    // bitmap (staged_used_ only ever accretes within a transaction), so
    // this write cannot touch the committed generation.
    const std::optional<std::uint64_t> first = staged_used_.AllocateRun(run);
    if (!first.has_value()) {
      poisoned_ = true;
      return Status::ResourceExhausted(
          "block store: out of space staging file " +
          std::to_string(key.first) + " v" + std::to_string(key.second) +
          " (" + std::to_string(staged_used_.FreeCount()) +
          " free blocks, need a run of " + std::to_string(run) + ")");
    }
    const IoResult r =
        WriteExtent(*first, block.payload.data(), block.payload.size());
    if (!r.ok()) {
      poisoned_ = true;
      return r.ToStatus("block store: staging " + block.header.ToString());
    }
    entry.blocks.push_back({*first, block.header.checksum});
  }
  staged_.emplace(key, std::move(entry));
  dirty_ = true;
  return Status::OK();
}

Status BlockStore::StageErase(ida::FileId file_id, std::uint64_t version) {
  if (poisoned_) {
    return Status::IoError(
        "block store: poisoned by a failed commit; Abort first");
  }
  const CatalogKey key{file_id, version};
  if (staged_.erase(key) == 0) {
    return Status::NotFound("block store: no entry for file " +
                            std::to_string(file_id) + " v" +
                            std::to_string(version));
  }
  // The erased entry's blocks stay marked in staged_used_ on purpose:
  // they belong to the committed generation until the commit lands.
  dirty_ = true;
  return Status::OK();
}

Status BlockStore::Commit() {
  if (poisoned_) {
    return Status::IoError(
        "block store: poisoned by a failed commit; Abort first");
  }
  if (!dirty_) return Status::OK();

  const std::size_t bs = device_->block_size();
  const std::vector<std::uint8_t> blob = SerializeCatalog(staged_);
  const std::optional<std::uint64_t> first =
      staged_used_.AllocateRun(ExtentBlocks(blob.size(), bs));
  if (!first.has_value()) {
    poisoned_ = true;
    return Status::ResourceExhausted(
        "block store: out of space for the new catalog (" +
        std::to_string(blob.size()) + " bytes)");
  }
  IoResult r = WriteExtent(*first, blob.data(), blob.size());
  if (!r.ok()) {
    poisoned_ = true;
    return r.ToStatus("block store commit: catalog write");
  }
  // Fence: the catalog and all staged payloads must be durable before the
  // superblock that references them can exist.
  r = device_->Sync();
  if (!r.ok()) {
    poisoned_ = true;
    return r.ToStatus("block store commit: pre-flip sync");
  }

  Superblock sb;
  sb.generation = generation_ + 1;
  sb.catalog_first = *first;
  sb.catalog_bytes = blob.size();
  sb.catalog_crc = Crc32c(blob.data(), blob.size());
  const std::vector<std::uint8_t> sector =
      SerializeSuperblock(sb, bs, device_->block_count());
  // THE flip: one sector, into the slot the committed superblock does not
  // occupy. Before the post-flip sync completes, recovery may see either
  // generation — both are consistent.
  r = device_->WriteBlock(sb.generation % 2, sector.data());
  if (!r.ok()) {
    poisoned_ = true;
    return r.ToStatus("block store commit: superblock flip");
  }
  r = device_->Sync();
  if (!r.ok()) {
    poisoned_ = true;
    return r.ToStatus("block store commit: post-flip sync");
  }

  generation_ = sb.generation;
  catalog_first_ = sb.catalog_first;
  catalog_bytes_ = sb.catalog_bytes;
  committed_ = staged_;
  dirty_ = false;
  RebuildBitmaps();
  return Status::OK();
}

void BlockStore::Abort() {
  staged_ = committed_;
  staged_used_ = committed_used_;
  dirty_ = false;
  poisoned_ = false;
}

const CatalogEntry* BlockStore::FindEntry(ida::FileId file_id,
                                          std::uint64_t version) const {
  const auto it = committed_.find(CatalogKey{file_id, version});
  return it == committed_.end() ? nullptr : &it->second;
}

Result<ida::Block> BlockStore::ReadCodedBlock(
    ida::FileId file_id, std::uint64_t version,
    std::uint32_t block_index) const {
  const CatalogEntry* entry = FindEntry(file_id, version);
  if (entry == nullptr) {
    return Status::NotFound("block store: no entry for file " +
                            std::to_string(file_id) + " v" +
                            std::to_string(version));
  }
  if (block_index >= entry->n) {
    return Status::InvalidArgument(
        "block store: block index " + std::to_string(block_index) +
        " out of range for n=" + std::to_string(entry->n));
  }
  const CodedBlockRef& ref = entry->blocks[block_index];
  ida::Block block;
  block.header.file_id = entry->file_id;
  block.header.block_index = block_index;
  block.header.reconstruct_threshold = entry->m;
  block.header.total_blocks = entry->n;
  block.header.version = entry->version;
  block.header.checksum = ref.checksum;
  // Unwritten bytes (ida::Payload): the read fills every one of them.
  block.payload.resize(entry->payload_bytes);
  const IoResult r =
      ReadExtent(ref.first_block, block.payload.data(), entry->payload_bytes);
  if (!r.ok()) {
    return r.ToStatus("block store: reading " + block.header.ToString());
  }
  if (ida::VerifyChecksum(block) != ida::ChecksumState::kValid) {
    // Bit rot: the payload on disk no longer matches the wire stamp the
    // catalog promised. Typed rejection — never decoded garbage.
    return IoResult{IoError::kChecksumMismatch, IoOp::kRead, 0,
                    ref.first_block, 0}
        .ToStatus("block store: reading " + block.header.ToString());
  }
  return block;
}

StoreStats BlockStore::Stats() const {
  StoreStats stats;
  stats.generation = generation_;
  stats.entries = committed_.size();
  stats.total_blocks = device_->block_count();
  stats.free_blocks = committed_used_.FreeCount();
  stats.block_size = device_->block_size();
  return stats;
}

}  // namespace bdisk::store
