// Serial-vs-parallel equivalence: the runtime layer's determinism contract
// (docs/ARCHITECTURE.md) verified end to end. Every workload metric and
// every dispersed byte must be identical — bitwise, not approximately —
// between the serial path (null pool) and any thread/shard count.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bdisk/flat_builder.h"
#include "common/random.h"
#include "faults/channel_model.h"
#include "ida/dispersal.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "sim/simulation.h"

namespace bdisk::sim {
namespace {

using ida::Block;
using ida::Dispersal;
using runtime::ThreadPool;

broadcast::BroadcastProgram SixFileProgram() {
  std::vector<broadcast::FlatFileSpec> files;
  for (int i = 0; i < 6; ++i) {
    files.push_back({"F" + std::to_string(i),
                     static_cast<std::uint32_t>(3 + i % 3),
                     static_cast<std::uint32_t>(2 * (3 + i % 3)),
                     {96}});
  }
  auto p = broadcast::BuildFlatProgram(files, broadcast::FlatLayout::kSpread);
  EXPECT_TRUE(p.ok());
  return *p;
}

void ExpectIdenticalMetrics(const SimulationMetrics& a,
                            const SimulationMetrics& b) {
  ASSERT_EQ(a.per_file.size(), b.per_file.size());
  for (std::size_t f = 0; f < a.per_file.size(); ++f) {
    const FileMetrics& fa = a.per_file[f];
    const FileMetrics& fb = b.per_file[f];
    EXPECT_EQ(fa.file_name, fb.file_name);
    EXPECT_EQ(fa.completed, fb.completed);
    EXPECT_EQ(fa.missed_deadline, fb.missed_deadline);
    EXPECT_EQ(fa.incomplete, fb.incomplete);
    EXPECT_EQ(fa.errors_observed, fb.errors_observed);
    EXPECT_EQ(fa.latency.count(), fb.latency.count());
    // Bitwise equality of the floating-point aggregates, not EXPECT_NEAR:
    // that is the contract.
    EXPECT_EQ(fa.latency.sum(), fb.latency.sum());
    EXPECT_EQ(fa.latency.mean(), fb.latency.mean());
    EXPECT_EQ(fa.latency.variance(), fb.latency.variance());
    EXPECT_EQ(fa.latency.min(), fb.latency.min());
    EXPECT_EQ(fa.latency.max(), fb.latency.max());
  }
}

TEST(ParallelWorkloadTest, MatchesSerialBitwiseAcrossSeedsAndThreadCounts) {
  const auto program = SixFileProgram();
  for (std::uint64_t seed : {1ull, 42ull, 987654321ull}) {
    const faults::BernoulliChannel channel(0.08, 4242);
    Simulator sim(program, channel, 60000);
    WorkloadConfig config;
    config.requests_per_file = 500;
    config.seed = seed;
    auto serial = sim.RunWorkload(config);
    ASSERT_TRUE(serial.ok()) << serial.status();
    for (unsigned threads : {2u, 3u, 5u}) {
      ThreadPool pool(threads);
      auto parallel = sim.RunWorkload(config, &pool);
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      ExpectIdenticalMetrics(*serial, *parallel);
    }
  }
}

TEST(ParallelWorkloadTest, ShardCountDoesNotLeakIntoResults) {
  // Different pool sizes shard the same workload differently; the merged
  // metrics must not depend on the split.
  const auto program = SixFileProgram();
  const faults::BernoulliChannel channel(0.15, 99);
  Simulator sim(program, channel, 60000);
  WorkloadConfig config;
  config.requests_per_file = 333;  // Deliberately not divisible by shards.
  ThreadPool pool_a(2);
  ThreadPool pool_b(7);
  auto a = sim.RunWorkload(config, &pool_a);
  auto b = sim.RunWorkload(config, &pool_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectIdenticalMetrics(*a, *b);
}

TEST(ParallelWorkloadTest, ValidationStillFailsUpFront) {
  const auto program = SixFileProgram();
  const faults::LosslessChannel channel;
  Simulator sim(program, channel, 30);  // Horizon too small.
  ThreadPool pool(2);
  WorkloadConfig config;
  EXPECT_FALSE(sim.RunWorkload(config, &pool).ok());
  // Flat model on a rotating (n > m) program is rejected before sharding.
  Simulator sim2(program, channel, 60000);
  WorkloadConfig flat;
  flat.model = broadcast::ClientModel::kFlat;
  EXPECT_FALSE(sim2.RunWorkload(flat, &pool).ok());
  // 6 files x 3074457345618258603 requests wraps to 2 in 64 bits; both
  // engines reject the count instead of running the wrapped total.
  WorkloadConfig wrapping;
  wrapping.requests_per_file = 3074457345618258603ull;
  for (const auto& result : {sim2.RunWorkload(wrapping, &pool),
                             sim2.RunWorkloadEvented(wrapping, &pool)}) {
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("requests_per_file"),
              std::string::npos)
        << result.status();
  }
}

TEST(ParallelTransactionTest, MatchesSerialBitwise) {
  const auto program = SixFileProgram();
  for (std::uint64_t seed : {7ull, 4096ull}) {
    const faults::BernoulliChannel channel(0.1, 777);
    Simulator sim(program, channel, 60000);
    TransactionWorkloadConfig config;
    config.transactions = 1500;
    config.files_per_transaction = 3;
    config.deadline_slots = 3 * program.period();
    config.seed = seed;
    auto serial = sim.RunTransactionWorkload(config);
    ASSERT_TRUE(serial.ok()) << serial.status();
    for (unsigned threads : {2u, 4u}) {
      ThreadPool pool(threads);
      auto parallel = sim.RunTransactionWorkload(config, &pool);
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      EXPECT_EQ(serial->completed, parallel->completed);
      EXPECT_EQ(serial->missed_deadline, parallel->missed_deadline);
      EXPECT_EQ(serial->incomplete, parallel->incomplete);
      EXPECT_EQ(serial->errors_observed, parallel->errors_observed);
      EXPECT_EQ(serial->latency.count(), parallel->latency.count());
      EXPECT_EQ(serial->latency.sum(), parallel->latency.sum());
      EXPECT_EQ(serial->latency.variance(), parallel->latency.variance());
      EXPECT_EQ(serial->latency.min(), parallel->latency.min());
      EXPECT_EQ(serial->latency.max(), parallel->latency.max());
    }
  }
}

TEST(ParallelTransactionTest, ValidatesConfig) {
  const auto program = SixFileProgram();
  const faults::LosslessChannel channel;
  Simulator sim(program, channel, 60000);
  TransactionWorkloadConfig config;
  config.files_per_transaction = 0;
  EXPECT_FALSE(sim.RunTransactionWorkload(config).ok());
  config.files_per_transaction = 100;  // More than the program has.
  EXPECT_FALSE(sim.RunTransactionWorkload(config).ok());
}

std::vector<std::uint8_t> RandomBytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> data(size);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Uniform(256));
  return data;
}

TEST(DisperseBatchTest, MatchesSerialByteForByte) {
  auto engine = Dispersal::Create(5, 10, 512);
  ASSERT_TRUE(engine.ok());
  const std::size_t stripe_bytes = 5 * 512;
  const auto file = RandomBytes(17 * stripe_bytes, 31337);
  auto serial = engine->DisperseBatch(3, file, 9);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_EQ(serial->size(), 17u);
  for (unsigned threads : {2u, 4u}) {
    ThreadPool pool(threads);
    auto parallel = engine->DisperseBatch(3, file, 9, &pool);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(*serial, *parallel);  // Block == compares header + payload.
  }
}

TEST(DisperseBatchTest, StripesMatchSingleStripeDisperse) {
  auto engine = Dispersal::Create(4, 8, 64);
  ASSERT_TRUE(engine.ok());
  const std::size_t stripe_bytes = 4 * 64;
  const auto file = RandomBytes(6 * stripe_bytes, 555);
  auto batch = engine->DisperseBatch(1, file, 2);
  ASSERT_TRUE(batch.ok());
  for (std::size_t s = 0; s < 6; ++s) {
    const std::vector<std::uint8_t> stripe(
        file.begin() + s * stripe_bytes, file.begin() + (s + 1) * stripe_bytes);
    auto single = engine->Disperse(1, stripe, 2);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batch)[s], *single) << "stripe " << s;
  }
}

TEST(DisperseBatchTest, RejectsBadSizes) {
  auto engine = Dispersal::Create(4, 8, 64);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->DisperseBatch(0, {}).status().IsInvalidArgument());
  const auto short_file = RandomBytes(4 * 64 + 1, 1);
  EXPECT_TRUE(engine->DisperseBatch(0, short_file).status()
                  .IsInvalidArgument());
}

TEST(DisperseBatchTest, StripesReconstructConcurrentlyOnOneEngine) {
  // Each stripe of a DisperseBatch round-trips through its own
  // Reconstruct. The stripes run on a pool and share one engine, so its
  // inverse cache is filled and read from several threads at once.
  auto engine = Dispersal::Create(6, 12, 256);
  ASSERT_TRUE(engine.ok());
  const std::size_t stripe_bytes = 6 * 256;
  const auto file = RandomBytes(20 * stripe_bytes, 777);
  ThreadPool pool(4);
  auto dispersed = engine->DisperseBatch(2, file, 0, &pool);
  ASSERT_TRUE(dispersed.ok());
  // Keep a different 6-subset per stripe (rotating, often all-parity) so
  // reconstruction exercises several cached inverses concurrently. One
  // stripe is starved below the threshold and must fail on its own.
  const std::size_t starved = 13;
  std::vector<std::vector<Block>> received(dispersed->size());
  for (std::size_t s = 0; s < dispersed->size(); ++s) {
    for (std::size_t j = 0; j < (s == starved ? 5 : 6); ++j) {
      received[s].push_back((*dispersed)[s][(s + j) % 12]);
    }
  }
  std::vector<Result<std::vector<std::uint8_t>>> stripes(
      received.size(), Status::Internal("stripe not run"));
  runtime::ParallelFor(&pool, received.size(),
                       runtime::ShardCountFor(&pool, received.size()),
                       [&](unsigned, runtime::ShardRange range) {
                         for (std::uint64_t s = range.begin; s < range.end;
                              ++s) {
                           stripes[s] = engine->Reconstruct(received[s]);
                         }
                       });
  for (std::size_t s = 0; s < stripes.size(); ++s) {
    if (s == starved) {
      EXPECT_TRUE(stripes[s].status().IsDataLoss()) << stripes[s].status();
      continue;
    }
    ASSERT_TRUE(stripes[s].ok()) << "stripe " << s << ": "
                                 << stripes[s].status();
    EXPECT_TRUE(std::equal(stripes[s]->begin(), stripes[s]->end(),
                           file.begin() + s * stripe_bytes))
        << "stripe " << s;
  }
  EXPECT_LE(engine->cached_inverse_count(), 12u);
}

}  // namespace
}  // namespace bdisk::sim
