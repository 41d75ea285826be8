// The recovery sweep: the store's crash-safety claim, checked by
// enumeration rather than argument. A workload (catalog build, then an
// update transaction) is first run over a counting pass-through device to
// learn its total write count W, then replayed W+1 times under
// `powercut:at=k` for every write boundary k — plus a second sweep where
// the in-flight write at the boundary additionally tears. After every
// kill the device bytes are reopened and the store must recover to
// EXACTLY the old or the new consistent generation — every cataloged
// block checksum-valid and byte-identical to that generation's expected
// contents — never a torn hybrid. The last workload is a store-backed
// versioned server's retention commit, which adds a version and erases
// one in a single transaction; after each of its cuts a server reopened
// on the recovered store must also serve byte-exact blocks.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bdisk/flat_builder.h"
#include "ida/block.h"
#include "ida/dispersal.h"
#include "sim/versioned.h"
#include "store/block_device.h"
#include "store/block_store.h"
#include "store/fault_device.h"

namespace bdisk::store {
namespace {

constexpr std::size_t kBlockSize = 64;
constexpr std::uint64_t kBlockCount = 128;

std::vector<ida::Block> MakeBlocks(ida::FileId file_id, std::uint64_t version,
                                   std::uint32_t m, std::uint32_t n,
                                   std::size_t payload_bytes) {
  std::vector<ida::Block> blocks(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    blocks[i].header.file_id = file_id;
    blocks[i].header.block_index = i;
    blocks[i].header.reconstruct_threshold = m;
    blocks[i].header.total_blocks = n;
    blocks[i].header.version = version;
    blocks[i].payload.resize(payload_bytes);
    for (std::size_t b = 0; b < payload_bytes; ++b) {
      blocks[i].payload[b] = static_cast<std::uint8_t>(
          file_id * 7 + version * 131 + i * 17 + b);
    }
  }
  ida::StampChecksums(&blocks);
  return blocks;
}

// Small geometry keeps the sweep in the tens of boundaries.
std::vector<ida::Block> FileBlocks(ida::FileId file_id,
                                   std::uint64_t version) {
  return MakeBlocks(file_id, version, /*m=*/2, /*n=*/3,
                    /*payload_bytes=*/96);
}

// One generation the sweep may legally observe: the exact catalog keys
// and, for each, the exact stamped blocks.
struct ExpectedGeneration {
  std::string label;
  std::vector<std::vector<ida::Block>> files;
};

// True iff the recovered store's committed catalog matches `expected`
// exactly, with every block reading back checksum-valid and bit-identical.
bool MatchesGeneration(BlockStore& store, const ExpectedGeneration& expected,
                       std::string* why) {
  std::size_t entries = 0;
  for (const auto& file : expected.files) {
    const ida::BlockHeader& h = file.front().header;
    const CatalogEntry* entry = store.FindEntry(h.file_id, h.version);
    if (entry == nullptr) {
      *why = "missing file " + std::to_string(h.file_id) + " v" +
             std::to_string(h.version);
      return false;
    }
    ++entries;
    for (std::uint32_t i = 0; i < h.total_blocks; ++i) {
      const Result<ida::Block> block =
          store.ReadCodedBlock(h.file_id, h.version, i);
      if (!block.ok()) {
        *why = block.status().ToString();
        return false;
      }
      if (*block != file[i]) {
        *why = "block " + std::to_string(i) + " of file " +
               std::to_string(h.file_id) + " differs";
        return false;
      }
    }
  }
  if (store.catalog().size() != entries) {
    *why = "catalog has " + std::to_string(store.catalog().size()) +
           " entries, expected " + std::to_string(entries);
    return false;
  }
  return true;
}

using Workload = std::function<Status(std::unique_ptr<BlockDevice>)>;
// An extra check of a store recovered to a legal generation.
using RecoveredCheck =
    std::function<void(BlockStore* store, const std::string& spec)>;

// Forwards to a device the caller keeps alive, so the caller can still
// read it after the workload has destroyed the handle it was given.
class BorrowedDevice final : public BlockDevice {
 public:
  explicit BorrowedDevice(BlockDevice* device) : device_(device) {}

  std::size_t block_size() const override { return device_->block_size(); }
  std::uint64_t block_count() const override {
    return device_->block_count();
  }
  IoResult ReadBlock(std::uint64_t index, void* out) override {
    return device_->ReadBlock(index, out);
  }
  IoResult WriteBlock(std::uint64_t index, const void* data) override {
    return device_->WriteBlock(index, data);
  }
  IoResult Sync() override { return device_->Sync(); }

 private:
  BlockDevice* device_;
};

// Runs `workload` over a counting pass-through to learn its write count.
std::uint64_t CountWrites(const MemBlockDevice::Buffer& base,
                          const Workload& workload) {
  auto inner = std::make_unique<MemBlockDevice>(kBlockSize, kBlockCount);
  *inner->buffer() = base;
  const auto config = ParseDeviceFaultSpec("none");
  BDISK_CHECK(config.ok());
  FaultingBlockDevice counter(std::move(inner), *config);
  const Status status = workload(std::make_unique<BorrowedDevice>(&counter));
  EXPECT_TRUE(status.ok()) << "fault-free workload failed: " << status;
  BDISK_CHECK(status.ok());
  return counter.writes_attempted();
}

// The sweep proper. `allow_unformatted` accepts the pre-format state
// (power cut before the first superblock ever landed) as "old".
void SweepWorkload(const MemBlockDevice::Buffer& base,
                   const Workload& workload,
                   const std::vector<ExpectedGeneration>& legal,
                   bool allow_unformatted,
                   const RecoveredCheck& recovered_check = nullptr) {
  const std::uint64_t writes = CountWrites(base, workload);
  ASSERT_GT(writes, 0u);
  // Boundary k = "power dies on the k-th write"; k == writes exercises a
  // cut after the workload's last write (every write landed, syncs may
  // not have) — recovery must still pick a consistent generation.
  for (const bool torn : {false, true}) {
    for (std::uint64_t k = 0; k <= writes; ++k) {
      const std::string spec =
          "powercut:at=" + std::to_string(k) + (torn ? ",torn=13" : "");
      const auto config = ParseDeviceFaultSpec(spec);
      ASSERT_TRUE(config.ok()) << config.status();

      auto inner = std::make_unique<MemBlockDevice>(kBlockSize, kBlockCount);
      auto buffer = inner->buffer();
      *buffer = base;
      const Status died = workload(std::make_unique<FaultingBlockDevice>(
          std::move(inner), *config));
      if (k == writes) {
        // The cut landed after the last write; the workload may still
        // have died on a post-write sync — either outcome is legal.
      } else {
        ASSERT_FALSE(died.ok())
            << spec << ": workload survived a power cut mid-write";
      }

      // Reboot: reopen the surviving bytes and demand a consistent
      // generation.
      Result<std::unique_ptr<BlockStore>> reopened =
          BlockStore::Open(MemBlockDevice::Attach(buffer, kBlockSize));
      if (!reopened.ok()) {
        EXPECT_TRUE(allow_unformatted && reopened.status().IsDataLoss())
            << spec << ": reopen failed with " << reopened.status();
        continue;
      }
      std::string why;
      bool matched = false;
      std::string tried;
      for (const ExpectedGeneration& gen : legal) {
        if (MatchesGeneration(**reopened, gen, &why)) {
          matched = true;
          break;
        }
        tried += " [" + gen.label + ": " + why + "]";
      }
      EXPECT_TRUE(matched)
          << spec << ": recovered generation " << (*reopened)->generation()
          << " matches neither legal state:" << tried;
      if (matched && recovered_check) recovered_check(reopened->get(), spec);
    }
  }
}

TEST(StoreCrashSweepTest, BuildFromScratchRecoversOldOrNewAtEveryBoundary) {
  const Workload build = [](std::unique_ptr<BlockDevice> device) -> Status {
    BDISK_ASSIGN_OR_RETURN(std::unique_ptr<BlockStore> store,
                           BlockStore::Format(std::move(device)));
    BDISK_RETURN_NOT_OK(store->StageFile(FileBlocks(0, 0)));
    BDISK_RETURN_NOT_OK(store->StageFile(FileBlocks(1, 0)));
    return store->Commit();
  };
  const ExpectedGeneration empty{"gen1-empty", {}};
  const ExpectedGeneration full{"gen2-both-files",
                                {FileBlocks(0, 0), FileBlocks(1, 0)}};
  const MemBlockDevice::Buffer pristine(kBlockSize * kBlockCount, 0);
  SweepWorkload(pristine, build, {empty, full}, /*allow_unformatted=*/true);
}

TEST(StoreCrashSweepTest, UpdateTransactionRecoversOldOrNewAtEveryBoundary) {
  // Base state: generation 2 holding f0 v0 and f1 v0, built failure-free.
  MemBlockDevice::Buffer base;
  {
    auto mem = std::make_unique<MemBlockDevice>(kBlockSize, kBlockCount);
    auto buffer = mem->buffer();
    auto store = BlockStore::Format(std::move(mem));
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE((*store)->StageFile(FileBlocks(0, 0)).ok());
    ASSERT_TRUE((*store)->StageFile(FileBlocks(1, 0)).ok());
    ASSERT_TRUE((*store)->Commit().ok());
    base = *buffer;
  }
  // The update: one transaction replacing f0 v0 with f0 v1.
  const Workload update = [](std::unique_ptr<BlockDevice> device) -> Status {
    BDISK_ASSIGN_OR_RETURN(std::unique_ptr<BlockStore> store,
                           BlockStore::Open(std::move(device)));
    BDISK_RETURN_NOT_OK(store->StageErase(0, 0));
    BDISK_RETURN_NOT_OK(store->StageFile(FileBlocks(0, 1)));
    return store->Commit();
  };
  const ExpectedGeneration old_gen{"gen2-f0v0",
                                   {FileBlocks(0, 0), FileBlocks(1, 0)}};
  const ExpectedGeneration new_gen{"gen3-f0v1",
                                   {FileBlocks(0, 1), FileBlocks(1, 0)}};
  SweepWorkload(base, update, {old_gen, new_gen},
                /*allow_unformatted=*/false);
}

TEST(StoreCrashSweepTest, BackToBackUpdatesRecoverAcrossBothSlots) {
  // Two chained update transactions force commits into BOTH superblock
  // slots; the sweep covers the second transaction, whose "old" state is
  // itself a product of the first.
  MemBlockDevice::Buffer base;
  {
    auto mem = std::make_unique<MemBlockDevice>(kBlockSize, kBlockCount);
    auto buffer = mem->buffer();
    auto store = BlockStore::Format(std::move(mem));
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE((*store)->StageFile(FileBlocks(0, 0)).ok());
    ASSERT_TRUE((*store)->Commit().ok());  // Generation 2.
    ASSERT_TRUE((*store)->StageErase(0, 0).ok());
    ASSERT_TRUE((*store)->StageFile(FileBlocks(0, 1)).ok());
    ASSERT_TRUE((*store)->Commit().ok());  // Generation 3.
    base = *buffer;
  }
  const Workload update = [](std::unique_ptr<BlockDevice> device) -> Status {
    BDISK_ASSIGN_OR_RETURN(std::unique_ptr<BlockStore> store,
                           BlockStore::Open(std::move(device)));
    BDISK_RETURN_NOT_OK(store->StageErase(0, 1));
    BDISK_RETURN_NOT_OK(store->StageFile(FileBlocks(0, 2)));
    return store->Commit();
  };
  const ExpectedGeneration old_gen{"gen3-f0v1", {FileBlocks(0, 1)}};
  const ExpectedGeneration new_gen{"gen4-f0v2", {FileBlocks(0, 2)}};
  SweepWorkload(base, update, {old_gen, new_gen},
                /*allow_unformatted=*/false);
}

// A two-file versioned program on one-sector blocks: file 0 updates
// every kInterval slots, file 1 never.
constexpr std::uint64_t kInterval = 6;

Result<sim::VersionedBroadcastServer> MakeVersionedServer(BlockStore* store) {
  std::vector<broadcast::FlatFileSpec> files{{"A", 2, 3, {}},
                                             {"B", 2, 3, {}}};
  BDISK_ASSIGN_OR_RETURN(
      broadcast::BroadcastProgram program,
      broadcast::BuildFlatProgram(files, broadcast::FlatLayout::kSpread));
  sim::VersionedServerOptions options;
  options.block_size = kBlockSize;
  options.update_interval_slots = {kInterval, 0};
  options.store = store;
  return sim::VersionedBroadcastServer::Create(std::move(program), options);
}

// The stamped blocks the versioned server commits for (file, version).
std::vector<ida::Block> VersionBlocks(ida::FileId file,
                                      std::uint64_t version) {
  const auto contents = MakeVersionedServer(nullptr);
  BDISK_CHECK(contents.ok());
  auto engine = ida::Dispersal::Create(2, 3, kBlockSize);
  BDISK_CHECK(engine.ok());
  auto blocks =
      engine->Disperse(file, contents->ContentsOf(file, version), version);
  BDISK_CHECK(blocks.ok());
  ida::StampChecksums(&*blocks);
  return *blocks;
}

// Fetches slots from `from` until the server has sent file 0 at `version`,
// committing each (file, version) it meets on the way.
Status ServeUntilVersion(const sim::VersionedBroadcastServer& server,
                         std::uint64_t from, std::uint64_t version) {
  for (std::uint64_t t = from;; ++t) {
    BDISK_ASSIGN_OR_RETURN(std::optional<ida::Block> block,
                           server.FetchTransmission(t));
    if (block.has_value() && block->header.file_id == 0 &&
        block->header.version == version) {
      return Status::OK();
    }
  }
}

TEST(StoreCrashSweepTest, VersionedRetentionCommitRecoversOldOrNew) {
  // Base state: f0 v0, f0 v1 and f1 v0, committed by the server itself.
  MemBlockDevice::Buffer base;
  {
    auto mem = std::make_unique<MemBlockDevice>(kBlockSize, kBlockCount);
    auto buffer = mem->buffer();
    auto store = BlockStore::Format(std::move(mem));
    ASSERT_TRUE(store.ok()) << store.status();
    const auto server = MakeVersionedServer(store->get());
    ASSERT_TRUE(server.ok()) << server.status();
    ASSERT_TRUE(ServeUntilVersion(*server, 0, 1).ok());
    ASSERT_EQ((*store)->catalog().size(), 3u);
    base = *buffer;
  }
  // The third version of f0: one commit adds f0 v2 and erases f0 v0.
  const Workload retention =
      [](std::unique_ptr<BlockDevice> device) -> Status {
    BDISK_ASSIGN_OR_RETURN(std::unique_ptr<BlockStore> store,
                           BlockStore::Open(std::move(device)));
    BDISK_ASSIGN_OR_RETURN(sim::VersionedBroadcastServer server,
                           MakeVersionedServer(store.get()));
    return ServeUntilVersion(server, 2 * kInterval, 2);
  };
  const ExpectedGeneration old_gen{
      "f0v0-f0v1-f1v0",
      {VersionBlocks(0, 0), VersionBlocks(0, 1), VersionBlocks(1, 0)}};
  const ExpectedGeneration new_gen{
      "f0v1-f0v2-f1v0",
      {VersionBlocks(0, 1), VersionBlocks(0, 2), VersionBlocks(1, 0)}};
  // A server reopened on either generation serves the in-memory server's
  // blocks over all three versions, re-dispersing what it lacks.
  std::set<std::uint64_t> generations;
  const RecoveredCheck serve = [&generations](BlockStore* store,
                                              const std::string& spec) {
    generations.insert(store->generation());
    const auto memory = MakeVersionedServer(nullptr);
    const auto disk = MakeVersionedServer(store);
    ASSERT_TRUE(memory.ok() && disk.ok());
    for (std::uint64_t t = 0; t < 3 * kInterval; ++t) {
      const auto want = memory->FetchTransmission(t);
      const auto got = disk->FetchTransmission(t);
      ASSERT_TRUE(want.ok() && got.ok()) << spec << " slot " << t;
      ASSERT_EQ(*got, *want) << spec << " slot " << t;
    }
  };
  SweepWorkload(base, retention, {old_gen, new_gen},
                /*allow_unformatted=*/false, serve);
  EXPECT_EQ(generations.size(), 2u) << "the sweep never recovered one side";
}

}  // namespace
}  // namespace bdisk::store
