// Tests for versioned broadcast and absolute temporal consistency.

#include "sim/versioned.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "bdisk/block_size.h"
#include "bdisk/flat_builder.h"
#include "bdisk/spec_parser.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "faults/channel_model.h"
#include "pinwheel/composite_scheduler.h"
#include "store/block_device.h"
#include "store/block_store.h"

namespace bdisk::sim {
namespace {

broadcast::BroadcastProgram ToyProgram() {
  std::vector<broadcast::FlatFileSpec> files{
      {"A", 3, 6, {}},
      {"B", 2, 4, {}},
  };
  auto p = broadcast::BuildFlatProgram(files, broadcast::FlatLayout::kSpread);
  EXPECT_TRUE(p.ok());
  return *p;
}

VersionedBroadcastServer MakeServer(std::uint64_t interval_a,
                                    std::uint64_t interval_b,
                                    store::BlockStore* store = nullptr,
                                    std::size_t block_size = 16) {
  VersionedServerOptions options;
  options.block_size = block_size;
  options.update_interval_slots = {interval_a, interval_b};
  options.store = store;
  auto server = VersionedBroadcastServer::Create(ToyProgram(), options);
  EXPECT_TRUE(server.ok()) << server.status();
  return std::move(*server);
}

// A freshly formatted in-memory store of 64-byte sectors: one 16-byte
// toy block per sector.
std::unique_ptr<store::BlockStore> MakeStore() {
  auto store = store::BlockStore::Format(
      std::make_unique<store::MemBlockDevice>(64, 256));
  EXPECT_TRUE(store.ok()) << store.status();
  return std::move(*store);
}

// Versions of `file` the store holds.
std::size_t VersionsHeld(const store::BlockStore& store, ida::FileId file) {
  std::size_t held = 0;
  for (const auto& [key, entry] : store.catalog()) held += key.first == file;
  return held;
}

TEST(VersionedServerTest, CreateValidation) {
  VersionedServerOptions bad_size;
  bad_size.block_size = 0;
  bad_size.update_interval_slots = {0, 0};
  EXPECT_FALSE(VersionedBroadcastServer::Create(ToyProgram(), bad_size).ok());
  VersionedServerOptions bad_count;
  bad_count.update_interval_slots = {0};
  EXPECT_FALSE(
      VersionedBroadcastServer::Create(ToyProgram(), bad_count).ok());
}

TEST(VersionedServerTest, VersionArithmetic) {
  const auto server = MakeServer(10, 0);
  EXPECT_EQ(server.VersionAt(0, 0), 0u);
  EXPECT_EQ(server.VersionAt(0, 9), 0u);
  EXPECT_EQ(server.VersionAt(0, 10), 1u);
  EXPECT_EQ(server.VersionAt(0, 25), 2u);
  EXPECT_EQ(server.VersionStartSlot(0, 2), 20u);
  // File B never updates.
  EXPECT_EQ(server.VersionAt(1, 1000), 0u);
}

TEST(VersionedServerTest, TransmissionsCarryCurrentVersion) {
  const auto server = MakeServer(10, 0);
  for (std::uint64_t t = 0; t < 60; ++t) {
    auto block = server.FetchTransmission(t);
    ASSERT_TRUE(block.ok());
    ASSERT_TRUE(block->has_value());
    const auto& header = (*block)->header;
    EXPECT_EQ(header.version, server.VersionAt(header.file_id, t))
        << "slot " << t;
  }
}

TEST(VersionedServerTest, ContentsDeterministicPerVersion) {
  const auto server = MakeServer(10, 0);
  EXPECT_EQ(server.ContentsOf(0, 3), server.ContentsOf(0, 3));
  EXPECT_NE(server.ContentsOf(0, 3), server.ContentsOf(0, 4));
  EXPECT_NE(server.ContentsOf(0, 3), server.ContentsOf(1, 3));
}

TEST(VersionedServerTest, ContentsArePinned) {
  // Content synthesis is part of every byte-exact check; a change to it
  // must be deliberate, so two snapshots are pinned by CRC-32C.
  const auto server = MakeServer(10, 0);
  const std::vector<std::uint8_t> a = server.ContentsOf(0, 0);
  const std::vector<std::uint8_t> b = server.ContentsOf(1, 3);
  ASSERT_EQ(a.size(), 48u);
  ASSERT_EQ(b.size(), 32u);
  EXPECT_EQ(Crc32c(a.data(), a.size()), 0xBCFC1751u);
  EXPECT_EQ(Crc32c(b.data(), b.size()), 0x1D080A17u);
}

TEST(VersionedServerTest, ShortSnapshotIsAPrefixOfTheDrawStream) {
  // Eight bytes per draw: a block size that is not a multiple of 8 keeps
  // the low bytes of the last draw, so it is a prefix of a longer one.
  const auto wide = MakeServer(10, 0, nullptr, 16);
  const auto narrow = MakeServer(10, 0, nullptr, 13);
  const std::vector<std::uint8_t> full = wide.ContentsOf(0, 2);
  const std::vector<std::uint8_t> cut = narrow.ContentsOf(0, 2);
  ASSERT_EQ(cut.size(), 39u);
  EXPECT_TRUE(std::equal(cut.begin(), cut.end(), full.begin()));
}

TEST(MixedVersionTest, ReconstructRejectsMixedSnapshots) {
  auto engine = ida::Dispersal::Create(2, 4, 8);
  ASSERT_TRUE(engine.ok());
  Rng rng(5);
  std::vector<std::uint8_t> v0(16);
  std::vector<std::uint8_t> v1(16);
  for (auto& b : v0) b = static_cast<std::uint8_t>(rng.Uniform(256));
  for (auto& b : v1) b = static_cast<std::uint8_t>(rng.Uniform(256));
  auto blocks_v0 = engine->Disperse(0, v0, 0);
  auto blocks_v1 = engine->Disperse(0, v1, 1);
  ASSERT_TRUE(blocks_v0.ok());
  ASSERT_TRUE(blocks_v1.ok());
  std::vector<ida::Block> mixed{(*blocks_v0)[0], (*blocks_v1)[1]};
  Status st = engine->Reconstruct(mixed).status();
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("version"), std::string::npos);
}

TEST(VersionedRetrievalTest, StableFileRoundTrips) {
  const auto server = MakeServer(0, 0);
  const faults::LosslessChannel channel;
  auto session = RunVersionedRetrieval(server, channel, 0, 0, 1000);
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE(session->completed);
  EXPECT_EQ(session->version, 0u);
  EXPECT_EQ(session->restarts, 0u);
  EXPECT_EQ(session->data, server.ContentsOf(0, 0));
}

TEST(VersionedRetrievalTest, RetrievesFreshVersionAcrossBoundary) {
  // Update every 7 slots; a client starting just before a boundary must
  // restart and end with a consistent *newer* snapshot, byte-exact.
  const auto server = MakeServer(7, 0);
  const faults::LosslessChannel channel;
  for (std::uint64_t start = 0; start < 40; ++start) {
    auto session = RunVersionedRetrieval(server, channel, 0, start, 2000);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session->completed) << "start " << start;
    EXPECT_EQ(session->data, server.ContentsOf(0, session->version))
        << "start " << start;
    // The retrieved version is current sometime within the session.
    EXPECT_GE(session->completion_slot,
              server.VersionStartSlot(0, session->version));
  }
}

TEST(VersionedRetrievalTest, DataAgeBoundedByIntervalPlusRetrieval) {
  const std::uint64_t interval = 20;
  const auto server = MakeServer(interval, 0);
  const faults::LosslessChannel channel;
  for (std::uint64_t start = 0; start < 40; ++start) {
    auto session = RunVersionedRetrieval(server, channel, 0, start, 2000);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session->completed);
    // Age counts from the snapshot's creation; it can never exceed the
    // interval plus the collection time (a newer version would have
    // triggered a restart otherwise).
    EXPECT_LE(session->data_age, interval + session->latency);
  }
}

TEST(VersionedRetrievalTest, TooFastUpdatesStarveRetrieval) {
  // File A needs 3 blocks; its slots come roughly every other slot, so an
  // update interval of 2 can never deliver 3 same-version blocks.
  const auto server = MakeServer(2, 0);
  const faults::LosslessChannel channel;
  auto session = RunVersionedRetrieval(server, channel, 0, 0, 5000);
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session->completed);
  EXPECT_GT(session->restarts, 100u);  // Perpetual restarting.
}

TEST(VersionedRetrievalTest, RestartsCountedUnderLoss) {
  // Starts sweep one update interval, so some sessions straddle an update
  // and restart. A lost block only delays a session; a corrupted one must
  // fail the required checksum and never be combined. Either way every
  // session ends byte-exact on a single version.
  const std::uint64_t interval = 12;
  const auto server = MakeServer(interval, 0);
  const faults::BernoulliChannel loss(0.3, 99);
  const faults::CorruptionChannel corruption(0.2, 5);
  for (const faults::ChannelModel* channel :
       {static_cast<const faults::ChannelModel*>(&loss),
        static_cast<const faults::ChannelModel*>(&corruption)}) {
    std::uint32_t restarts = 0;
    for (std::uint64_t start = 0; start < interval; ++start) {
      auto session =
          RunVersionedRetrieval(server, *channel, 0, start, 20000);
      ASSERT_TRUE(session.ok()) << session.status();
      ASSERT_TRUE(session->completed)
          << channel->Describe() << " start " << start;
      EXPECT_EQ(session->data, server.ContentsOf(0, session->version))
          << channel->Describe() << " start " << start;
      restarts += session->restarts;
    }
    EXPECT_GT(restarts, 0u) << channel->Describe();
  }
}

// ---------------------------------------------------------------------------
// Store-backed server and version retention
// ---------------------------------------------------------------------------

constexpr std::uint64_t kIntervalA = 12;
constexpr std::uint64_t kIntervalB = 20;
// Eight update intervals of the slower file.
constexpr std::uint64_t kSlots = 8 * kIntervalB;

TEST(VersionedStoreTest, ServesTheInMemoryBlockEverySlot) {
  const auto memory = MakeServer(kIntervalA, kIntervalB);
  const auto store = MakeStore();
  const auto disk = MakeServer(kIntervalA, kIntervalB, store.get());
  for (std::uint64_t t = 0; t < kSlots; ++t) {
    const auto want = memory.FetchTransmission(t);
    const auto got = disk.FetchTransmission(t);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << got.status();
    // Header (checksum included) and payload, bit for bit.
    ASSERT_EQ(*got, *want) << "slot " << t;
    for (ida::FileId f = 0; f < 2; ++f) {
      ASSERT_LE(VersionsHeld(*store, f),
                VersionedBroadcastServer::kRetainedVersions)
          << "slot " << t << " file " << f;
    }
  }
  EXPECT_EQ(VersionsHeld(*store, 0),
            VersionedBroadcastServer::kRetainedVersions);
}

TEST(VersionedStoreTest, RetrievalsMatchTheInMemoryServerFromAnyStart) {
  const auto memory = MakeServer(kIntervalA, kIntervalB);
  const auto store = MakeStore();
  const auto disk = MakeServer(kIntervalA, kIntervalB, store.get());
  const faults::LosslessChannel lossless;
  const faults::BernoulliChannel lossy(0.3, 7);
  // Late starts first, so early ones fetch versions already evicted.
  const std::uint64_t starts[] = {kSlots - 10, 0, kSlots / 2, 5,
                                  kSlots - 30, kSlots / 2 + 7};
  for (const faults::ChannelModel* channel :
       {static_cast<const faults::ChannelModel*>(&lossless),
        static_cast<const faults::ChannelModel*>(&lossy)}) {
    for (const std::uint64_t start : starts) {
      for (broadcast::FileIndex f = 0; f < 2; ++f) {
        const auto want =
            RunVersionedRetrieval(memory, *channel, f, start, 4 * kSlots);
        const auto got =
            RunVersionedRetrieval(disk, *channel, f, start, 4 * kSlots);
        ASSERT_TRUE(want.ok()) << want.status();
        ASSERT_TRUE(got.ok()) << got.status();
        const std::string where = channel->Describe() + " file " +
                                  std::to_string(f) + " start " +
                                  std::to_string(start);
        ASSERT_TRUE(want->completed) << where;
        EXPECT_EQ(got->completed, want->completed) << where;
        EXPECT_EQ(got->completion_slot, want->completion_slot) << where;
        EXPECT_EQ(got->latency, want->latency) << where;
        EXPECT_EQ(got->version, want->version) << where;
        EXPECT_EQ(got->data_age, want->data_age) << where;
        EXPECT_EQ(got->restarts, want->restarts) << where;
        EXPECT_EQ(got->data, want->data) << where;
        EXPECT_EQ(got->data, disk.ContentsOf(f, got->version)) << where;
      }
    }
  }
  EXPECT_LE(store->catalog().size(),
            2 * VersionedBroadcastServer::kRetainedVersions);
}

TEST(VersionedStoreTest, EvictedVersionIsRedispersedByteIdentical) {
  const auto memory = MakeServer(kIntervalA, kIntervalB);
  const auto store = MakeStore();
  const auto disk = MakeServer(kIntervalA, kIntervalB, store.get());
  const auto slot_of_file_a = [&memory](std::uint64_t from) {
    std::uint64_t t = from;
    while (memory.program().TransmissionAt(t)->file != 0) ++t;
    return t;
  };
  const std::uint64_t early = slot_of_file_a(0);
  const std::uint64_t late = slot_of_file_a(3 * kIntervalA);
  ASSERT_EQ(memory.VersionAt(0, early), 0u);
  ASSERT_EQ(memory.VersionAt(0, late), 3u);
  const auto fetch = [&disk](std::uint64_t t) {
    const auto block = disk.FetchTransmission(t);
    EXPECT_TRUE(block.ok()) << block.status();
    return block.ok() ? *block : std::nullopt;
  };
  const auto want = [&memory](std::uint64_t t) {
    return *memory.FetchTransmission(t);
  };

  // Walk up to `late`: version 0 is committed, then retired.
  for (std::uint64_t t = 0; t <= late; ++t) ASSERT_EQ(fetch(t), want(t));
  ASSERT_EQ(store->FindEntry(0, 0), nullptr);
  ASSERT_NE(store->FindEntry(0, 3), nullptr);

  // Late, then the evicted early version, then late again.
  EXPECT_EQ(fetch(late), want(late));
  EXPECT_EQ(fetch(early), want(early));
  EXPECT_NE(store->FindEntry(0, 0), nullptr);
  // Kept: v0 and its nearest neighbour v2; v3 is farthest, so it went.
  EXPECT_NE(store->FindEntry(0, 2), nullptr);
  EXPECT_EQ(store->FindEntry(0, 3), nullptr);
  EXPECT_EQ(fetch(late), want(late));
  EXPECT_NE(store->FindEntry(0, 3), nullptr);
  EXPECT_EQ(VersionsHeld(*store, 0),
            VersionedBroadcastServer::kRetainedVersions);
}

TEST(VersionedStoreTest, EqualDistanceEvictsTheOlderVersion) {
  const auto store = MakeStore();
  const auto disk = MakeServer(kIntervalA, kIntervalB, store.get());
  const auto fetch_version = [&](std::uint64_t version) {
    std::uint64_t t = version * kIntervalA;
    while (disk.program().TransmissionAt(t)->file != 0) ++t;
    ASSERT_EQ(disk.VersionAt(0, t), version);
    ASSERT_TRUE(disk.FetchTransmission(t).ok());
  };
  fetch_version(3);
  fetch_version(5);
  fetch_version(4);  // v3 and v5 are both one away: v3, the older, goes.
  EXPECT_EQ(store->FindEntry(0, 3), nullptr);
  EXPECT_NE(store->FindEntry(0, 4), nullptr);
  EXPECT_NE(store->FindEntry(0, 5), nullptr);
}

// The update_churn benchmark's program: 12 files of 32 KiB blocks in three
// latency classes, updating every 1-4 periods.
broadcast::BroadcastProgram ChurnProgram() {
  constexpr std::uint64_t kBlockBytes = 32768;
  constexpr double kLatencySeconds[3] = {0.5, 1.0, 1.5};
  constexpr std::uint64_t kBlocks[3] = {4, 6, 8};
  std::ostringstream text;
  text << "channel " << 200 * kBlockBytes << "\nblocksize " << kBlockBytes
       << "\n";
  for (std::uint32_t i = 0; i < 12; ++i) {
    text << "file u" << i << " bytes=" << kBlocks[i % 3] * kBlockBytes
         << " latency=" << kLatencySeconds[i % 3] << " faults=" << 1 + i % 2
         << "\n";
  }
  const auto spec = broadcast::ParseWorkloadSpec(text.str());
  EXPECT_TRUE(spec.ok()) << spec.status();
  const pinwheel::CompositeScheduler scheduler;
  auto choice = broadcast::ChooseLargestFeasibleBlockSize(
      spec->byte_files, spec->channel_bytes_per_second, scheduler,
      {spec->block_size});
  EXPECT_TRUE(choice.ok()) << choice.status();
  EXPECT_EQ(choice->block_size, kBlockBytes);
  return std::move(choice->build.program);
}

TEST(VersionedStoreTest, VersionCommitsLeaveThePinnedDeviceImage) {
  // Every byte the commit path writes — synthesized snapshots, parity,
  // stamps, catalog generations and retention erases — is pinned by the
  // CRC-32C of the whole device after dozens of commits. The snapshots
  // (6 and 4 rows of 4 KiB) are long enough for the lane kernel
  // (sim/contents.h); the value was computed with serial synthesis, before
  // the lanes existed.
  auto program = broadcast::BuildFlatProgram(
      {{"A", 6, 8, {}}, {"B", 4, 5, {}}}, broadcast::FlatLayout::kSpread);
  ASSERT_TRUE(program.ok()) << program.status();
  auto device = std::make_unique<store::MemBlockDevice>(4096, 256);
  const std::shared_ptr<store::MemBlockDevice::Buffer> image = device->buffer();
  auto block_store = store::BlockStore::Format(std::move(device));
  ASSERT_TRUE(block_store.ok()) << block_store.status();
  VersionedServerOptions options;
  options.block_size = 4096;
  options.update_interval_slots = {7, 11};
  options.content_seed = 3;
  options.store = block_store->get();
  auto server = VersionedBroadcastServer::Create(*program, options);
  ASSERT_TRUE(server.ok()) << server.status();
  const std::uint64_t formatted = (*block_store)->generation();
  for (std::uint64_t t = 0; t < 200; ++t) {
    ASSERT_TRUE(server->FetchTransmission(t).ok()) << "slot " << t;
  }
  EXPECT_GE((*block_store)->generation() - formatted, 20u);
  EXPECT_EQ(Crc32c(image->data(), image->size()), 0xEACC3EFBu);
}

TEST(VersionedStoreTest, ChurnRunsTenHorizonsOnADeviceSizedByTheWindow) {
  // Regression: a store-backed server used to keep every version, so any
  // finite device ended in ResourceExhausted. The device here holds three
  // versions per file (the window plus the one being staged) and a few
  // sectors for superblocks and catalogs; 84,000 slots create ~780
  // versions.
  constexpr std::size_t kSector = 4096;
  constexpr std::uint64_t kBlockBytes = 32768;
  constexpr std::uint64_t kSlotCount = 84000;
  const broadcast::BroadcastProgram program = ChurnProgram();
  ASSERT_EQ(program.file_count(), 12u);
  std::uint64_t sectors = store::BlockStore::kFirstDataBlock + 16;
  VersionedServerOptions options;
  options.block_size = kBlockBytes;
  for (broadcast::FileIndex f = 0; f < program.file_count(); ++f) {
    options.update_interval_slots.push_back((1 + f % 4) * program.period());
    sectors += 3 * program.files()[f].n * (kBlockBytes / kSector);
  }
  auto store = store::BlockStore::Format(
      std::make_unique<store::MemBlockDevice>(kSector, sectors));
  ASSERT_TRUE(store.ok()) << store.status();
  options.store = store->get();
  auto server = VersionedBroadcastServer::Create(program, options);
  ASSERT_TRUE(server.ok()) << server.status();

  std::uint64_t commits = 0;
  for (std::uint64_t t = 0; t < kSlotCount; ++t) {
    const std::uint64_t generation = (*store)->generation();
    const auto block = server->FetchTransmission(t);
    ASSERT_TRUE(block.ok()) << "slot " << t << ": " << block.status();
    if (!block->has_value()) continue;
    const ida::BlockHeader& h = (*block)->header;
    ASSERT_EQ(h.version, server->VersionAt(h.file_id, t)) << "slot " << t;
    if ((*store)->generation() == generation) continue;
    ++commits;
    ASSERT_LE((*store)->catalog().size(),
              program.file_count() *
                  VersionedBroadcastServer::kRetainedVersions)
        << "slot " << t;
  }
  EXPECT_GT(commits, 700u);
}

}  // namespace
}  // namespace bdisk::sim
