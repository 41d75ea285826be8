// Tests for versioned broadcast and absolute temporal consistency.

#include "sim/versioned.h"

#include <gtest/gtest.h>

#include "bdisk/flat_builder.h"
#include "common/random.h"
#include "faults/channel_model.h"

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
                                    std::uint64_t interval_b) {
  VersionedServerOptions options;
  options.block_size = 16;
  options.update_interval_slots = {interval_a, interval_b};
  auto server = VersionedBroadcastServer::Create(ToyProgram(), options);
  EXPECT_TRUE(server.ok()) << server.status();
  return std::move(*server);
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
    auto block = server.TransmissionAt(t);
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

}  // namespace
}  // namespace bdisk::sim
