// Tests for the ReconstructingClient's explicit offer outcomes: every
// unusable block (duplicate, stale version, corrupt, malformed) is
// rejected with a reason and counted — never silently treated as progress
// or overwritten — while stale-*epoch* blocks remain combinable under the
// hot-swap geometry contract. Also pins the in-place assembly: a geometry
// and block-size sweep of seeded arrival orders through restarts and
// hand-overs, a randomized comparison with the codec's own reconstruction,
// and the allocation bound (checked by counting global operator new
// calls).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bdisk/flat_builder.h"
#include "common/random.h"
#include "faults/channel_model.h"
#include "ida/dispersal.h"
#include "sim/client.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Overriding the global operator new in a test
// binary is well-defined; the counter is only armed inside
// AllocationsDuring.

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
std::atomic<bool> g_count_allocations{false};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bdisk::sim {
namespace {

template <typename F>
std::uint64_t AllocationsDuring(F&& f) {
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  f();
  g_count_allocations.store(false);
  return g_allocation_count.load();
}

std::vector<std::uint8_t> RandomFile(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> data(size);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Uniform(256));
  return data;
}

std::vector<ida::Block> DisperseFile(std::uint32_t m, std::uint32_t n,
                                     std::size_t block_size,
                                     std::uint64_t version,
                                     std::uint64_t content_seed) {
  auto engine = ida::Dispersal::Create(m, n, block_size);
  EXPECT_TRUE(engine.ok());
  auto blocks = engine->Disperse(
      0, RandomFile(m * block_size, content_seed), version);
  EXPECT_TRUE(blocks.ok());
  for (ida::Block& b : *blocks) ida::StampChecksum(&b);
  return *blocks;
}

TEST(OfferOutcomeTest, AcceptAndCompleteLifecycle) {
  const auto blocks = DisperseFile(2, 4, 16, 0, 1);
  ReconstructingClient client(0, 2, 4, 16);
  EXPECT_EQ(client.OfferEx(blocks[0]), OfferOutcome::kAccepted);
  EXPECT_EQ(client.OfferEx(blocks[2]), OfferOutcome::kCompleted);
  EXPECT_EQ(client.OfferEx(blocks[3]), OfferOutcome::kAlreadyComplete);
  EXPECT_TRUE(client.CanReconstruct());
}

TEST(OfferOutcomeTest, DuplicatesAreExplicitlyRejectedAndCounted) {
  const auto blocks = DisperseFile(3, 6, 16, 0, 2);
  ReconstructingClient client(0, 3, 6, 16);
  EXPECT_EQ(client.OfferEx(blocks[1]), OfferOutcome::kAccepted);
  EXPECT_EQ(client.OfferEx(blocks[1]), OfferOutcome::kDuplicate);
  EXPECT_EQ(client.OfferEx(blocks[1]), OfferOutcome::kDuplicate);
  EXPECT_EQ(client.duplicates_rejected(), 2u);
  EXPECT_EQ(client.distinct_blocks(), 1u);  // No silent overwrite.
}

TEST(OfferOutcomeTest, StaleVersionIsRejectedNotCombined) {
  const auto v0 = DisperseFile(2, 4, 16, /*version=*/0, 3);
  const auto v1 = DisperseFile(2, 4, 16, /*version=*/1, 4);
  ReconstructingClient client(0, 2, 4, 16);
  EXPECT_EQ(client.OfferEx(v1[0]), OfferOutcome::kAccepted);
  // An older snapshot's block must never join a newer collection.
  EXPECT_EQ(client.OfferEx(v0[1]), OfferOutcome::kStaleVersion);
  EXPECT_EQ(client.stale_rejected(), 1u);
  EXPECT_EQ(client.distinct_blocks(), 1u);
  // Finishing with the pinned version reconstructs that snapshot.
  EXPECT_EQ(client.OfferEx(v1[1]), OfferOutcome::kCompleted);
  auto data = client.Reconstruct();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, RandomFile(2 * 16, 4));
}

TEST(OfferOutcomeTest, NewerVersionRestartsCollection) {
  const auto v0 = DisperseFile(2, 4, 16, /*version=*/0, 5);
  const auto v2 = DisperseFile(2, 4, 16, /*version=*/2, 6);
  ReconstructingClient client(0, 2, 4, 16);
  EXPECT_EQ(client.OfferEx(v0[0]), OfferOutcome::kAccepted);
  // A newer snapshot invalidates the stale partial: discard and restart.
  EXPECT_EQ(client.OfferEx(v2[1]), OfferOutcome::kAccepted);
  EXPECT_EQ(client.restarts(), 1u);
  EXPECT_EQ(client.distinct_blocks(), 1u);
  EXPECT_EQ(client.OfferEx(v2[3]), OfferOutcome::kCompleted);
  auto data = client.Reconstruct();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, RandomFile(2 * 16, 6));
}

TEST(OfferOutcomeTest, StaleEpochBlocksRemainCombinable) {
  // Epochs only re-schedule transmissions; geometry and contents are
  // invariant (sim/epoch.h), so blocks heard under different epochs — in
  // either order — reconstruct together.
  const auto blocks = DisperseFile(2, 5, 16, 0, 7);
  ReconstructingClient client(0, 2, 5, 16);
  EXPECT_EQ(client.OfferEx(blocks[4], /*epoch=*/3), OfferOutcome::kAccepted);
  EXPECT_EQ(client.OfferEx(blocks[0], /*epoch=*/1),
            OfferOutcome::kCompleted);
  EXPECT_EQ(client.EpochsSpanned(), 2u);
  auto data = client.Reconstruct();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, RandomFile(2 * 16, 7));
}

TEST(OfferOutcomeTest, ChecksumMismatchIsRejectedInAnyMode) {
  auto blocks = DisperseFile(2, 4, 16, 0, 8);
  ReconstructingClient client(0, 2, 4, 16);
  ida::Block damaged = blocks[0];
  damaged.payload[3] ^= 0x40;
  // Stamped-but-wrong is rejected even without require_checksums.
  EXPECT_EQ(client.OfferEx(damaged), OfferOutcome::kChecksumMismatch);
  EXPECT_EQ(client.checksum_rejected(), 1u);
  EXPECT_EQ(client.OfferEx(blocks[0]), OfferOutcome::kAccepted);
}

TEST(OfferOutcomeTest, RequireChecksumsRejectsUnstamped) {
  auto blocks = DisperseFile(2, 4, 16, 0, 9);
  ida::Block unstamped = blocks[0];
  unstamped.header.checksum = 0;

  ReconstructingClient lenient(0, 2, 4, 16);
  EXPECT_EQ(lenient.OfferEx(unstamped), OfferOutcome::kAccepted);

  ReconstructingClient strict(0, 2, 4, 16);
  strict.set_require_checksums(true);
  EXPECT_EQ(strict.OfferEx(unstamped), OfferOutcome::kChecksumMismatch);
  EXPECT_EQ(strict.OfferEx(blocks[0]), OfferOutcome::kAccepted);
}

TEST(OfferOutcomeTest, WrongFileAndMalformedHeaders) {
  const auto blocks = DisperseFile(2, 4, 16, 0, 10);
  ReconstructingClient client(1, 2, 4, 16);  // Listens for file 1.
  EXPECT_EQ(client.OfferEx(blocks[0]), OfferOutcome::kWrongFile);

  ReconstructingClient geometry(0, 2, 4, 16);
  ida::Block wrong_m = blocks[0];
  wrong_m.header.reconstruct_threshold = 3;
  ida::StampChecksum(&wrong_m);  // Valid checksum, wrong geometry.
  EXPECT_EQ(geometry.OfferEx(wrong_m), OfferOutcome::kMalformedHeader);

  // A re-stamped payload of the wrong size verifies, but is never
  // buffered: the client still completes and reconstructs from genuine
  // blocks.
  ida::Block short_payload = blocks[1];
  short_payload.payload.resize(8);
  ida::StampChecksum(&short_payload);
  ida::Block long_payload = blocks[1];
  long_payload.payload.push_back(0x5A);
  ida::StampChecksum(&long_payload);
  EXPECT_EQ(geometry.OfferEx(short_payload), OfferOutcome::kMalformedHeader);
  EXPECT_EQ(geometry.OfferEx(long_payload), OfferOutcome::kMalformedHeader);
  EXPECT_EQ(geometry.distinct_blocks(), 0u);
  EXPECT_EQ(geometry.OfferEx(blocks[1]), OfferOutcome::kAccepted);
  EXPECT_EQ(geometry.OfferEx(blocks[3]), OfferOutcome::kCompleted);
  auto data = geometry.Reconstruct();
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(*data, RandomFile(2 * 16, 10));
}

TEST(OfferOutcomeTest, ClearResetsCollectionButKeepsCounters) {
  const auto blocks = DisperseFile(2, 4, 16, 0, 11);
  ReconstructingClient client(0, 2, 4, 16);
  EXPECT_EQ(client.OfferEx(blocks[0]), OfferOutcome::kAccepted);
  EXPECT_EQ(client.OfferEx(blocks[0]), OfferOutcome::kDuplicate);
  client.Clear();
  EXPECT_EQ(client.distinct_blocks(), 0u);
  EXPECT_EQ(client.duplicates_rejected(), 1u);
  // After Clear the same index is fresh again.
  EXPECT_EQ(client.OfferEx(blocks[0]), OfferOutcome::kAccepted);
}

// ---------------------------------------------------------------------------
// In-place assembly.

struct SweepGeometry {
  std::uint32_t m;
  std::uint32_t n;
};

// From a one-block file to the widest dispersal over GF(2^8); every
// geometry runs at every block size, 32 KiB only up to n = 10.
constexpr SweepGeometry kSweepGeometries[] = {
    {1, 1}, {1, 3}, {2, 2}, {2, 6}, {4, 6},
    {6, 8}, {8, 10}, {32, 35}, {128, 256}};
constexpr std::size_t kSweepBlockSizes[] = {1, 7, 1024, 32768};

struct Snapshot {
  std::vector<std::uint8_t> contents;
  std::vector<ida::Block> blocks;
};

Snapshot MakeSnapshot(const ida::Dispersal& engine, std::uint64_t version,
                      Rng* rng) {
  Snapshot s;
  s.contents.resize(engine.reconstruct_threshold() * engine.block_size());
  for (auto& b : s.contents) b = static_cast<std::uint8_t>(rng->Uniform(256));
  auto blocks = engine.Disperse(0, s.contents, version);
  EXPECT_TRUE(blocks.ok());
  s.blocks = std::move(*blocks);
  for (ida::Block& b : s.blocks) ida::StampChecksum(&b);
  return s;
}

// An m-subset with as many parity blocks as can stand in for data rows
// (min(n - m, m)), so as many rows as possible are erased, shuffled.
std::vector<std::size_t> MostErasures(const SweepGeometry& g, Rng* rng) {
  const std::uint32_t parity = std::min(g.n - g.m, g.m);
  std::vector<std::size_t> order;
  for (const std::size_t i : rng->SampleWithoutReplacement(g.m, g.m - parity)) {
    order.push_back(i);
  }
  for (const std::size_t i : rng->SampleWithoutReplacement(g.n - g.m, parity)) {
    order.push_back(g.m + i);
  }
  rng->Shuffle(&order);
  return order;
}

// Offers the m distinct blocks `order` of `snap` with seeded noise between
// them: duplicates of blocks already offered, and stragglers of the older
// snapshot `older`. Only the m-th distinct block completes.
void Collect(ReconstructingClient* client, const Snapshot& snap,
             const std::vector<std::size_t>& order, const Snapshot& older,
             Rng* rng) {
  for (std::size_t k = 0; k < order.size(); ++k) {
    const bool last = k + 1 == order.size();
    ASSERT_EQ(client->OfferEx(snap.blocks[order[k]]),
              last ? OfferOutcome::kCompleted : OfferOutcome::kAccepted)
        << "offer " << k << " (block " << order[k] << ")";
    if (last) break;
    if (rng->Bernoulli(0.5)) {
      ASSERT_EQ(client->OfferEx(snap.blocks[order[rng->Uniform(k + 1)]]),
                OfferOutcome::kDuplicate);
    }
    if (rng->Bernoulli(0.3)) {
      const ida::Block& straggler =
          older.blocks[rng->Uniform(older.blocks.size())];
      ASSERT_EQ(client->OfferEx(straggler), OfferOutcome::kStaleVersion);
    }
  }
}

// Each slot in `forged` delivers its genuine block re-stamped with the
// next version and a fresh, valid checksum: a forger who copies the
// broadcast but holds no key.
class ForgingChannel final : public faults::ChannelModel {
 public:
  explicit ForgingChannel(std::vector<std::uint64_t> forged)
      : forged_(std::move(forged)) {}
  faults::FaultType FaultAt(std::uint64_t slot) const override {
    return std::find(forged_.begin(), forged_.end(), slot) != forged_.end()
               ? faults::FaultType::kCorrupted
               : faults::FaultType::kNone;
  }
  void CorruptBlock(std::uint64_t, ida::Block* block) const override {
    ++block->header.version;
    ida::StampChecksum(block);
  }
  std::string Describe() const override { return "forging"; }

 private:
  std::vector<std::uint64_t> forged_;
};

TEST(VersionForgeryTest, StaticSessionRejectsAReStampedNewerVersion) {
  // A static broadcast never updates a file, so a newer version can only
  // be forged. Had the session restarted on the forgery, every later
  // genuine block would be stale and the retrieval would never complete.
  auto program = broadcast::BuildFlatProgram({{"A", 3, 6, {}}, {"B", 2, 4, {}}},
                                             broadcast::FlatLayout::kSpread);
  ASSERT_TRUE(program.ok()) << program.status();
  const std::vector<std::vector<std::uint8_t>> contents{RandomFile(3 * 16, 1),
                                                        RandomFile(2 * 16, 2)};
  auto server = BroadcastServer::Create(*program, contents, 16);
  ASSERT_TRUE(server.ok()) << server.status();
  // Forge A's first transmission, which would pin the collection, and its
  // third, which would restart one.
  std::vector<std::uint64_t> a_slots;
  for (std::uint64_t t = 0; a_slots.size() < 3; ++t) {
    const auto tx = program->TransmissionAt(t);
    if (tx.has_value() && tx->file == 0) a_slots.push_back(t);
  }
  const ForgingChannel channel({a_slots[0], a_slots[2]});
  auto forged = RunRetrievalSession(*server, channel, 0, 0, 200);
  ASSERT_TRUE(forged.ok()) << forged.status();
  ASSERT_TRUE(forged->completed);
  EXPECT_EQ(forged->data, contents[0]);
  EXPECT_EQ(forged->version_rejected, 2u);

  // A versioned retrieval keeps the newest-version rule: an unpinned
  // client restarts on the same forgery.
  ReconstructingClient unpinned(0, 3, 6, 16);
  auto first = server->FetchTransmission(a_slots[0]);
  ASSERT_TRUE(first.ok() && first->has_value());
  ida::Block copy = **first;
  channel.CorruptBlock(a_slots[0], &copy);
  EXPECT_EQ(unpinned.OfferEx(**first), OfferOutcome::kAccepted);
  EXPECT_EQ(unpinned.OfferEx(copy), OfferOutcome::kAccepted);
  EXPECT_EQ(unpinned.restarts(), 1u);
}

TEST(VersionForgeryTest, PinnedClientRejectsEveryOtherVersionWithoutRestart) {
  const auto v0 = DisperseFile(2, 4, 16, /*version=*/0, 7);
  const auto v1 = DisperseFile(2, 4, 16, /*version=*/1, 8);
  const auto v3 = DisperseFile(2, 4, 16, /*version=*/3, 9);
  ReconstructingClient client(0, 2, 4, 16);
  client.pin_version(1);
  EXPECT_EQ(client.OfferEx(v0[0]), OfferOutcome::kVersionMismatch);
  EXPECT_EQ(client.OfferEx(v1[0]), OfferOutcome::kAccepted);
  EXPECT_EQ(client.OfferEx(v3[1]), OfferOutcome::kVersionMismatch);
  EXPECT_EQ(client.OfferEx(v0[1]), OfferOutcome::kVersionMismatch);
  EXPECT_EQ(client.version_rejected(), 3u);
  EXPECT_EQ(client.stale_rejected(), 0u);
  EXPECT_EQ(client.restarts(), 0u);
  EXPECT_EQ(client.OfferEx(v1[3]), OfferOutcome::kCompleted);
  auto data = client.Reconstruct();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, RandomFile(2 * 16, 8));
}

// Each retrieval restarts mid-collection, so the arena keeps the dropped
// collection's rows; the completion that follows erases as many data rows
// as it can (seed 0) or a random set, and the hand-over is followed by a
// second file — parity-only wherever m <= n - m.
TEST(InPlaceAssemblyTest, EveryCompletionIsByteExact) {
  for (const SweepGeometry g : kSweepGeometries) {
    for (const std::size_t block_size : kSweepBlockSizes) {
      if (block_size == 32768 && g.n > 10) continue;
      auto engine = ida::Dispersal::Create(g.m, g.n, block_size);
      ASSERT_TRUE(engine.ok());
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        SCOPED_TRACE("m=" + std::to_string(g.m) + " n=" +
                     std::to_string(g.n) + " block_size=" +
                     std::to_string(block_size) + " seed=" +
                     std::to_string(seed));
        Rng rng(seed * 1000003 + g.m * 1009 + g.n * 31 + block_size);
        const Snapshot v1 = MakeSnapshot(*engine, 1, &rng);
        const Snapshot v2 = MakeSnapshot(*engine, 2, &rng);
        const Snapshot v3 = MakeSnapshot(*engine, 3, &rng);
        ReconstructingClient client(0, g.m, g.n, block_size);
        client.set_require_checksums(true);

        // m - 1 data rows of version 1, then version 2 restarts.
        for (const std::size_t i : rng.SampleWithoutReplacement(g.m, g.m - 1)) {
          ASSERT_EQ(client.OfferEx(v1.blocks[i]), OfferOutcome::kAccepted);
        }
        std::vector<std::size_t> order =
            seed == 0 ? MostErasures(g, &rng)
                      : rng.SampleWithoutReplacement(g.n, g.m);
        rng.Shuffle(&order);
        ASSERT_NO_FATAL_FAILURE(Collect(&client, v2, order, v1, &rng));
        EXPECT_EQ(client.restarts(), g.m > 1 ? 1u : 0u);
        auto data = client.Reconstruct();
        ASSERT_TRUE(data.ok()) << data.status();
        ASSERT_EQ(*data, v2.contents);

        // The hand-over empties the client; its counters persist.
        const std::uint64_t duplicates = client.duplicates_rejected();
        const std::uint64_t stale = client.stale_rejected();
        EXPECT_TRUE(client.Reconstruct().status().IsDataLoss());
        EXPECT_EQ(client.distinct_blocks(), 0u);
        EXPECT_EQ(client.EpochsSpanned(), 0u);
        EXPECT_EQ(client.duplicates_rejected(), duplicates);
        EXPECT_EQ(client.stale_rejected(), stale);
        EXPECT_EQ(client.restarts(), g.m > 1 ? 1u : 0u);

        // A second file into a fresh arena.
        if (g.m <= g.n - g.m) {
          order = rng.SampleWithoutReplacement(g.n - g.m, g.m);
          for (std::size_t& i : order) i += g.m;
        } else {
          order = rng.SampleWithoutReplacement(g.n, g.m);
        }
        rng.Shuffle(&order);
        ASSERT_NO_FATAL_FAILURE(Collect(&client, v3, order, v2, &rng));
        data = client.Reconstruct();
        ASSERT_TRUE(data.ok()) << data.status();
        ASSERT_EQ(*data, v3.contents);
      }
    }
  }
}

// Property: whatever order the m blocks arrive in, the assembly hands
// over the file, byte for byte what ida::Dispersal::Reconstruct makes of
// the same m blocks. Each trial draws m <= n <= 12 and a block size (odd
// ones included) and one arrival shape: any order, parity first, parity
// only, or a restart on a newer version after a partial collection of the
// older one; Collect adds duplicates and stale stragglers between blocks.
TEST(InPlaceAssemblyTest, RandomArrivalOrdersMatchTheCodec) {
  constexpr std::size_t kBlockSizes[] = {1, 3, 8, 17, 64, 255, 1000};
  Rng rng(0xA2E7A);
  for (int trial = 0; trial < 600; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.Uniform(12));
    const auto m = static_cast<std::uint32_t>(1 + rng.Uniform(n));
    const std::size_t block_size =
        kBlockSizes[rng.Uniform(std::size(kBlockSizes))];
    const int shape = trial % 4;
    SCOPED_TRACE("trial=" + std::to_string(trial) + " m=" +
                 std::to_string(m) + " n=" + std::to_string(n) +
                 " block_size=" + std::to_string(block_size) +
                 " shape=" + std::to_string(shape));
    auto engine = ida::Dispersal::Create(m, n, block_size);
    ASSERT_TRUE(engine.ok());
    const Snapshot v1 = MakeSnapshot(*engine, 1, &rng);
    const Snapshot v2 = MakeSnapshot(*engine, 2, &rng);
    ReconstructingClient client(0, m, n, block_size);
    client.set_require_checksums(true);

    std::vector<std::size_t> order;
    const std::uint32_t parity = n - m;
    if (shape == 1 && parity > 0) {
      // Parity first, then data rows; both groups shuffled.
      const std::size_t p = 1 + rng.Uniform(std::min(parity, m));
      for (const std::size_t i : rng.SampleWithoutReplacement(parity, p)) {
        order.push_back(m + i);
      }
      rng.Shuffle(&order);
      std::vector<std::size_t> data = rng.SampleWithoutReplacement(m, m - p);
      rng.Shuffle(&data);
      order.insert(order.end(), data.begin(), data.end());
    } else if (shape == 2 && parity >= m) {
      // Parity only: every data row is erased.
      for (const std::size_t i : rng.SampleWithoutReplacement(parity, m)) {
        order.push_back(m + i);
      }
    } else {
      order = rng.SampleWithoutReplacement(n, m);
      rng.Shuffle(&order);
    }
    if (shape == 3 && m > 1) {
      // A partial collection of version 1, which version 2 restarts.
      for (const std::size_t i :
           rng.SampleWithoutReplacement(n, 1 + rng.Uniform(m - 1))) {
        ASSERT_EQ(client.OfferEx(v1.blocks[i]), OfferOutcome::kAccepted);
      }
    }
    ASSERT_NO_FATAL_FAILURE(Collect(&client, v2, order, v1, &rng));
    EXPECT_EQ(client.restarts(), shape == 3 && m > 1 ? 1u : 0u);
    auto data = client.Reconstruct();
    ASSERT_TRUE(data.ok()) << data.status();
    ASSERT_EQ(*data, v2.contents);
    std::vector<ida::Block> held;
    for (const std::size_t i : order) held.push_back(v2.blocks[i]);
    auto codec = engine->Reconstruct(held);
    ASSERT_TRUE(codec.ok()) << codec.status();
    ASSERT_EQ(*data, *codec);
  }
}

// Rows a dropped collection wrote must not survive as the next version's
// erased rows: version 1's rows 3-5, then version 2 from its three parity
// blocks and rows 0-2, which leaves rows 3-5 to the solve.
TEST(InPlaceAssemblyTest, RestartLeavesNoDroppedRowInAnErasedRow) {
  constexpr std::uint32_t kM = 6;
  constexpr std::uint32_t kN = 9;
  constexpr std::size_t kBlock = 1000;
  auto engine = ida::Dispersal::Create(kM, kN, kBlock);
  ASSERT_TRUE(engine.ok());
  Rng rng(0x5EA1);
  const Snapshot v1 = MakeSnapshot(*engine, 1, &rng);
  const Snapshot v2 = MakeSnapshot(*engine, 2, &rng);
  ReconstructingClient client(0, kM, kN, kBlock);
  client.set_require_checksums(true);
  for (const std::size_t i : {3, 4, 5}) {
    ASSERT_EQ(client.OfferEx(v1.blocks[i]), OfferOutcome::kAccepted);
  }
  for (const std::size_t i : {6, 7, 8, 0, 1}) {
    ASSERT_EQ(client.OfferEx(v2.blocks[i]), OfferOutcome::kAccepted);
  }
  ASSERT_EQ(client.OfferEx(v2.blocks[2]), OfferOutcome::kCompleted);
  EXPECT_EQ(client.restarts(), 1u);
  auto data = client.Reconstruct();
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(*data, v2.contents);
}

// The arena at the first admitted block and the spares at the first parity
// block are a collection's only allocations; a completion with no erased
// row reconstructs without allocating.
TEST(InPlaceAssemblyTest, OneCollectionAllocatesArenaAndSparesOnly) {
  constexpr std::uint32_t kM = 8;
  constexpr std::uint32_t kN = 10;
  constexpr std::size_t kBlock = 32768;
  const auto blocks = DisperseFile(kM, kN, kBlock, 0, 12);
  ReconstructingClient client(0, kM, kN, kBlock);
  client.set_require_checksums(true);

  // Data rows 1..6, then both parity blocks: rows 0 and 7 are erased.
  std::uint64_t total = 0;
  for (std::uint32_t i = 1; i <= 6; ++i) {
    const std::uint64_t allocs = AllocationsDuring(
        [&] { EXPECT_EQ(client.OfferEx(blocks[i]), OfferOutcome::kAccepted); });
    EXPECT_EQ(allocs, i == 1 ? 1u : 0u) << "data block " << i;
    total += allocs;
  }
  total += AllocationsDuring(
      [&] { EXPECT_EQ(client.OfferEx(blocks[9]), OfferOutcome::kAccepted); });
  total += AllocationsDuring(
      [&] { EXPECT_EQ(client.OfferEx(blocks[8]), OfferOutcome::kCompleted); });
  EXPECT_LE(total, 2u);
  auto data = client.Reconstruct();
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(*data, RandomFile(kM * kBlock, 12));

  // Every data row: one allocation (the next arena), and a solve with
  // nothing to solve.
  total = 0;
  for (std::uint32_t i = 0; i < kM; ++i) {
    total += AllocationsDuring([&] { client.OfferEx(blocks[i]); });
  }
  EXPECT_EQ(total, 1u);
  ASSERT_TRUE(client.CanReconstruct());
  Result<std::vector<std::uint8_t>> systematic = std::vector<std::uint8_t>();
  EXPECT_EQ(AllocationsDuring([&] { systematic = client.Reconstruct(); }),
            0u);
  ASSERT_TRUE(systematic.ok()) << systematic.status();
  EXPECT_EQ(*systematic, RandomFile(kM * kBlock, 12));
}

}  // namespace
}  // namespace bdisk::sim
