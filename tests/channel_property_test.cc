// Property-based channel/codec tests: for random geometries (n, m), block
// sizes, and loss patterns, a byte-level retrieval through a lossy channel
// reconstructs byte-identically whenever >= m distinct blocks survive, and
// fails cleanly (typed DataLoss error, no partial output, no UB) whenever
// fewer than m survive. Runs under ASan/UBSan in CI like the rest of the
// suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "bdisk/flat_builder.h"
#include "common/random.h"
#include "faults/channel_model.h"
#include "ida/dispersal.h"
#include "runtime/rng_stream.h"
#include "sim/client.h"
#include "sim/server.h"

namespace bdisk::sim {
namespace {

std::vector<std::uint8_t> RandomFile(std::size_t size, Rng* rng) {
  std::vector<std::uint8_t> data(size);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng->Uniform(256));
  return data;
}

struct Geometry {
  std::uint32_t m;
  std::uint32_t n;
  std::size_t block_size;
};

Geometry RandomGeometry(Rng* rng) {
  const auto m = static_cast<std::uint32_t>(1 + rng->Uniform(12));
  const auto n = m + static_cast<std::uint32_t>(rng->Uniform(12));
  const std::size_t block_size = 1 + rng->Uniform(96);
  return {m, n, block_size};
}

// A single-file broadcast program: every slot transmits the file, the
// data-cycle rotation walks its n dispersed blocks.
broadcast::BroadcastProgram OneFileProgram(const Geometry& g) {
  auto program = broadcast::BuildFlatProgram(
      {{"F", g.m, g.n, {}}}, broadcast::FlatLayout::kSpread);
  EXPECT_TRUE(program.ok());
  return *program;
}

// >= m survivors: the session completes and returns the original bytes.
// The channel is a random Bernoulli loss trace; the horizon is generous
// enough that the rotation eventually delivers m distinct block indices
// through any loss pattern that is not almost-everything.
TEST(ChannelPropertyTest, EnoughSurvivorsReconstructByteIdentically) {
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    Rng rng(runtime::StreamSeed(0xFEED, trial));
    const Geometry g = RandomGeometry(&rng);
    const auto contents = RandomFile(g.m * g.block_size, &rng);
    auto server = BroadcastServer::Create(OneFileProgram(g), {contents},
                                          g.block_size);
    ASSERT_TRUE(server.ok()) << server.status();

    const double p = 0.05 + 0.4 * rng.UniformDouble();  // Loss in [.05,.45].
    const faults::BernoulliChannel channel(p, trial * 31 + 7);
    // Loss rate < 1/2 and one distinct block per rotation step: ~2x m
    // rotations of headroom plus slack makes non-completion astronomically
    // unlikely; completion is asserted, so a regression fails loudly.
    const std::uint64_t horizon = 64 * (g.n + g.m) + 4096;
    auto session = RunRetrievalSession(*server, channel, 0,
                                       /*start_slot=*/trial % g.m, horizon);
    ASSERT_TRUE(session.ok()) << session.status();
    ASSERT_TRUE(session->completed)
        << "m=" << g.m << " n=" << g.n << " p=" << p;
    ASSERT_EQ(session->data, contents)
        << "m=" << g.m << " n=" << g.n << " p=" << p;
  }
}

// < m survivors: Reconstruct fails with a clean DataLoss, whether the
// shortage comes from the channel (session against an outage that erases
// everything after a prefix) or from handing the codec too few blocks
// directly. No partial data is returned either way.
TEST(ChannelPropertyTest, TooFewSurvivorsFailCleanly) {
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    Rng rng(runtime::StreamSeed(0xDEAD, trial));
    Geometry g = RandomGeometry(&rng);
    if (g.m < 2) g.m = 2;
    if (g.n < g.m) g.n = g.m;
    const auto contents = RandomFile(g.m * g.block_size, &rng);
    auto server = BroadcastServer::Create(OneFileProgram(g), {contents},
                                          g.block_size);
    ASSERT_TRUE(server.ok()) << server.status();

    // The channel delivers only the first k < m slots, then total outage.
    const std::uint64_t k = rng.Uniform(g.m);
    const faults::OutageChannel channel(/*period=*/0, /*start=*/k,
                                        /*length=*/~std::uint64_t{0} - k);
    auto session = RunRetrievalSession(*server, channel, 0, 0,
                                       /*horizon=*/k + 4 * g.n + 64);
    ASSERT_TRUE(session.ok()) << session.status();
    EXPECT_FALSE(session->completed);
    EXPECT_TRUE(session->data.empty());  // No partial output.

    // The codec path agrees: k distinct blocks < m is typed DataLoss.
    auto engine = ida::Dispersal::Create(g.m, g.n, g.block_size);
    ASSERT_TRUE(engine.ok());
    auto blocks = engine->Disperse(0, contents);
    ASSERT_TRUE(blocks.ok());
    std::vector<ida::Block> survivors;
    for (std::size_t i : rng.SampleWithoutReplacement(g.n, k)) {
      survivors.push_back((*blocks)[i]);
    }
    auto rec = engine->Reconstruct(survivors);
    ASSERT_FALSE(rec.ok());
    EXPECT_TRUE(rec.status().IsDataLoss()) << rec.status();
  }
}

// Random subsets of exactly m survivors, fed through the client out of
// order: always byte-identical. (The erasure pattern is arbitrary here,
// not a prefix — this is the "any m of n" claim itself.)
TEST(ChannelPropertyTest, AnyMSurvivorsSufficeThroughClient) {
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    Rng rng(runtime::StreamSeed(0xC0DE, trial));
    const Geometry g = RandomGeometry(&rng);
    const auto contents = RandomFile(g.m * g.block_size, &rng);
    auto engine = ida::Dispersal::Create(g.m, g.n, g.block_size);
    ASSERT_TRUE(engine.ok());
    auto blocks = engine->Disperse(0, contents);
    ASSERT_TRUE(blocks.ok());
    for (ida::Block& b : *blocks) ida::StampChecksum(&b);

    std::vector<std::size_t> chosen =
        rng.SampleWithoutReplacement(g.n, g.m);
    rng.Shuffle(&chosen);
    ReconstructingClient client(0, g.m, g.n, g.block_size);
    client.set_require_checksums(true);
    for (std::size_t k = 0; k < chosen.size(); ++k) {
      ASSERT_EQ(client.OfferEx((*blocks)[chosen[k]]),
                k + 1 < chosen.size() ? OfferOutcome::kAccepted
                                      : OfferOutcome::kCompleted)
          << "m=" << g.m << " n=" << g.n << " offer " << k;
    }
    auto data = client.Reconstruct();
    ASSERT_TRUE(data.ok()) << data.status();
    ASSERT_EQ(*data, contents) << "m=" << g.m << " n=" << g.n;
  }
}

}  // namespace
}  // namespace bdisk::sim
