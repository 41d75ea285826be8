// Tests for the ReconstructingClient's explicit offer outcomes: every
// unusable block (duplicate, stale version, corrupt, malformed) is
// rejected with a reason and counted — never silently treated as progress
// or overwritten — while stale-*epoch* blocks remain combinable under the
// hot-swap geometry contract.

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "ida/dispersal.h"
#include "sim/client.h"

namespace bdisk::sim {
namespace {

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

}  // namespace
}  // namespace bdisk::sim
