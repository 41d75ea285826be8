// Byte-level data-plane tests: real IDA dispersal on the server, real
// GF(2^8) reconstruction on the client, through a faulty channel.

#include <gtest/gtest.h>

#include "bdisk/flat_builder.h"
#include "common/random.h"
#include "faults/channel_model.h"
#include "sim/client.h"
#include "sim/server.h"

namespace bdisk::sim {
namespace {

std::vector<std::uint8_t> RandomBytes(std::size_t size, Rng* rng) {
  std::vector<std::uint8_t> data(size);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng->Uniform(256));
  return data;
}

broadcast::BroadcastProgram ToyProgram() {
  std::vector<broadcast::FlatFileSpec> files{
      {"A", 5, 10, {}},
      {"B", 3, 6, {}},
  };
  auto p = broadcast::BuildFlatProgram(files, broadcast::FlatLayout::kSpread);
  EXPECT_TRUE(p.ok());
  return *p;
}

constexpr std::size_t kBlockSize = 64;

TEST(BroadcastServerTest, CreateValidatesContents) {
  const auto p = ToyProgram();
  // Wrong number of files.
  EXPECT_FALSE(BroadcastServer::Create(p, {{}}, kBlockSize).ok());
  // Wrong content size.
  std::vector<std::vector<std::uint8_t>> wrong{
      std::vector<std::uint8_t>(10, 0), std::vector<std::uint8_t>(10, 0)};
  EXPECT_FALSE(BroadcastServer::Create(p, wrong, kBlockSize).ok());
}

TEST(BroadcastServerTest, TransmissionsAreSelfIdentifying) {
  const auto p = ToyProgram();
  Rng rng(1);
  std::vector<std::vector<std::uint8_t>> contents{
      RandomBytes(5 * kBlockSize, &rng), RandomBytes(3 * kBlockSize, &rng)};
  auto server = BroadcastServer::Create(p, contents, kBlockSize);
  ASSERT_TRUE(server.ok()) << server.status();

  for (std::uint64_t t = 0; t < p.DataCycleLength(); ++t) {
    const auto block = server->FetchTransmission(t);
    ASSERT_TRUE(block.ok()) << block.status();
    ASSERT_TRUE(block->has_value());
    const auto tx = p.TransmissionAt(t);
    ASSERT_TRUE(tx.has_value());
    EXPECT_EQ((*block)->header.file_id, tx->file);
    EXPECT_EQ((*block)->header.block_index, tx->block_index);
    EXPECT_EQ((*block)->payload.size(), kBlockSize);
  }
}

TEST(DataPlaneTest, EndToEndNoFaults) {
  const auto p = ToyProgram();
  Rng rng(2);
  std::vector<std::vector<std::uint8_t>> contents{
      RandomBytes(5 * kBlockSize, &rng), RandomBytes(3 * kBlockSize, &rng)};
  auto server = BroadcastServer::Create(p, contents, kBlockSize);
  ASSERT_TRUE(server.ok());

  const faults::LosslessChannel channel;
  for (broadcast::FileIndex f = 0; f < 2; ++f) {
    auto session = RunRetrievalSession(*server, channel, f, 0, 1000);
    ASSERT_TRUE(session.ok()) << session.status();
    ASSERT_TRUE(session->completed);
    EXPECT_EQ(session->data, contents[f]);
  }
}

TEST(DataPlaneTest, EndToEndWithBurstLoss) {
  const auto p = ToyProgram();
  Rng rng(3);
  std::vector<std::vector<std::uint8_t>> contents{
      RandomBytes(5 * kBlockSize, &rng), RandomBytes(3 * kBlockSize, &rng)};
  auto server = BroadcastServer::Create(p, contents, kBlockSize);
  ASSERT_TRUE(server.ok());

  faults::GilbertElliottChannel::Params params;
  params.p_good_to_bad = 0.05;
  params.p_bad_to_good = 0.3;
  const faults::GilbertElliottChannel channel(params, 99);
  auto session = RunRetrievalSession(*server, channel, 0, 0, 100000);
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE(session->completed);
  EXPECT_EQ(session->data, contents[0]);
}

TEST(DataPlaneTest, LosingFirstPeriodStillReconstructsViaRotation) {
  // Figure 6's punchline: a client that misses every A block of the first
  // period reconstructs from A'6..A'10 in the second period.
  const auto p = ToyProgram();
  Rng rng(4);
  std::vector<std::vector<std::uint8_t>> contents{
      RandomBytes(5 * kBlockSize, &rng), RandomBytes(3 * kBlockSize, &rng)};
  auto server = BroadcastServer::Create(p, contents, kBlockSize);
  ASSERT_TRUE(server.ok());

  // Corrupt all of A's first-period transmissions.
  auto session = RunRetrievalSession(
      *server, faults::LostSlots(p.OccurrencesOf(0)), 0, 0, 1000);
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE(session->completed);
  EXPECT_EQ(session->data, contents[0]);
  // Completion must land in the second period.
  EXPECT_GE(session->completion_slot, p.period());
  EXPECT_LT(session->completion_slot, 2 * p.period());
}

TEST(ReconstructingClientTest, IgnoresForeignAndMalformedBlocks) {
  ReconstructingClient client(0, 2, 4, 8);
  ida::Block foreign;
  foreign.header = ida::BlockHeader{1, 0, 2, 4};
  foreign.payload.assign(8, 0);
  EXPECT_EQ(client.OfferEx(foreign), OfferOutcome::kWrongFile);
  EXPECT_EQ(client.distinct_blocks(), 0u);

  ida::Block malformed;
  malformed.header = ida::BlockHeader{0, 9, 2, 4};  // Index out of range.
  malformed.payload.assign(8, 0);
  EXPECT_EQ(client.OfferEx(malformed), OfferOutcome::kMalformedHeader);

  ida::Block stale;
  stale.header = ida::BlockHeader{0, 1, 3, 4};  // Wrong threshold.
  stale.payload.assign(8, 0);
  EXPECT_EQ(client.OfferEx(stale), OfferOutcome::kMalformedHeader);
  EXPECT_FALSE(client.CanReconstruct());
  EXPECT_TRUE(client.Reconstruct().status().IsDataLoss());
}

TEST(ReconstructingClientTest, ClearResets) {
  auto engine = ida::Dispersal::Create(2, 4, 8);
  ASSERT_TRUE(engine.ok());
  Rng rng(5);
  const auto file = RandomBytes(16, &rng);
  auto blocks = engine->Disperse(0, file);
  ASSERT_TRUE(blocks.ok());

  ReconstructingClient client(0, 2, 4, 8);
  EXPECT_EQ(client.OfferEx((*blocks)[0]), OfferOutcome::kAccepted);
  EXPECT_EQ(client.OfferEx((*blocks)[2]), OfferOutcome::kCompleted);
  ASSERT_TRUE(client.CanReconstruct());
  auto rec = client.Reconstruct();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, file);

  client.Clear();
  EXPECT_EQ(client.distinct_blocks(), 0u);
  EXPECT_FALSE(client.CanReconstruct());
}

TEST(ReconstructingClientTest, DuplicateBlocksDoNotAdvance) {
  auto engine = ida::Dispersal::Create(2, 4, 8);
  ASSERT_TRUE(engine.ok());
  Rng rng(6);
  auto blocks = engine->Disperse(0, RandomBytes(16, &rng));
  ASSERT_TRUE(blocks.ok());
  ReconstructingClient client(0, 2, 4, 8);
  EXPECT_EQ(client.OfferEx((*blocks)[1]), OfferOutcome::kAccepted);
  EXPECT_EQ(client.OfferEx((*blocks)[1]), OfferOutcome::kDuplicate);
  EXPECT_EQ(client.distinct_blocks(), 1u);
}

}  // namespace
}  // namespace bdisk::sim
