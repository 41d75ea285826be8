// Tests for the index-level broadcast-disk simulator.

#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bdisk/flat_builder.h"
#include "common/random.h"
#include "faults/channel_model.h"
#include "prime_rotation_program.h"
#include "runtime/rng_stream.h"

namespace bdisk::sim {
namespace {

broadcast::BroadcastProgram ToyProgram(bool ida) {
  std::vector<broadcast::FlatFileSpec> files{
      {"A", 5, ida ? 10u : 5u, {16}},
      {"B", 3, ida ? 6u : 3u, {16}},
  };
  auto p = broadcast::BuildFlatProgram(files, broadcast::FlatLayout::kSpread);
  EXPECT_TRUE(p.ok());
  return *p;
}

TEST(SimulatorTest, NoFaultRetrievalMatchesOccurrenceCount) {
  const auto p = ToyProgram(true);
  const faults::LosslessChannel channel;
  Simulator sim(p, channel, 1000);
  EXPECT_EQ(sim.CorruptedSlotCount(), 0u);

  ClientRequest req;
  req.file = 1;  // B: m = 3.
  req.start_slot = 0;
  auto outcome = sim.Retrieve(req);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed);
  // Completion at the third B transmission at or after slot 0.
  EXPECT_EQ(outcome->completion_slot, p.OccurrencesOf(1)[2]);
  EXPECT_TRUE(outcome->met_deadline);
  EXPECT_EQ(outcome->errors_observed, 0u);
}

TEST(SimulatorTest, ValidationErrors) {
  const auto p = ToyProgram(true);
  const faults::LosslessChannel channel;
  Simulator sim(p, channel, 100);
  ClientRequest bad_file;
  bad_file.file = 9;
  EXPECT_FALSE(sim.Retrieve(bad_file).ok());
  ClientRequest late;
  late.file = 0;
  late.start_slot = 100;
  EXPECT_FALSE(sim.Retrieve(late).ok());
  // Flat model on a rotating program is rejected.
  ClientRequest flat;
  flat.file = 0;
  flat.model = broadcast::ClientModel::kFlat;
  EXPECT_FALSE(sim.Retrieve(flat).ok());
}

TEST(SimulatorTest, TargetedFaultDelaysExactlyToNextBlock) {
  const auto p = ToyProgram(true);
  // Corrupt the third B transmission; client must finish at the fourth.
  const auto& occ = p.OccurrencesOf(1);
  Simulator sim(p, faults::LostSlots({occ[2]}), 1000);

  ClientRequest req;
  req.file = 1;
  req.start_slot = 0;
  auto outcome = sim.Retrieve(req);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->completed);
  EXPECT_EQ(outcome->errors_observed, 1u);
  // Fourth B transmission lives in the next period.
  EXPECT_EQ(outcome->completion_slot, occ[0] + p.period());
}

TEST(SimulatorTest, FlatClientWaitsForSpecificBlock) {
  const auto p = ToyProgram(false);  // n = m: flat.
  const auto& occ = p.OccurrencesOf(1);
  // Corrupt B's third transmission (block index 2). The flat client needs
  // exactly that block again: one full period later.
  Simulator sim(p, faults::LostSlots({occ[2]}), 1000);
  ClientRequest req;
  req.file = 1;
  req.start_slot = 0;
  req.model = broadcast::ClientModel::kFlat;
  auto outcome = sim.Retrieve(req);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->completed);
  EXPECT_EQ(outcome->completion_slot, occ[2] + p.period());
}

TEST(SimulatorTest, IdaClientRecoversFasterThanFlat) {
  // Same fault pattern; the IDA client takes any next block, the flat
  // client waits a full period.
  const auto ida_p = ToyProgram(true);
  const auto flat_p = ToyProgram(false);
  const auto& occ = ida_p.OccurrencesOf(0);
  // Kill A's fifth transmission.
  const faults::ComposedChannel channel = faults::LostSlots({occ[4]});

  Simulator ida_sim(ida_p, channel, 1000);
  Simulator flat_sim(flat_p, channel, 1000);
  ClientRequest req;
  req.file = 0;
  req.start_slot = 0;
  auto ida_out = ida_sim.Retrieve(req);
  req.model = broadcast::ClientModel::kFlat;
  auto flat_out = flat_sim.Retrieve(req);
  ASSERT_TRUE(ida_out.ok());
  ASSERT_TRUE(flat_out.ok());
  ASSERT_TRUE(ida_out->completed);
  ASSERT_TRUE(flat_out->completed);
  EXPECT_LT(ida_out->latency, flat_out->latency);
}

TEST(SimulatorTest, IncompleteWhenChannelDead) {
  const auto p = ToyProgram(true);
  const faults::BernoulliChannel channel(1.0, 1);  // Everything lost.
  Simulator sim(p, channel, 500);
  ClientRequest req;
  req.file = 0;
  req.start_slot = 0;
  req.deadline_slots = 16;
  auto outcome = sim.Retrieve(req);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->completed);
  EXPECT_FALSE(outcome->met_deadline);
}

TEST(SimulatorTest, DeadlineVerdicts) {
  const auto p = ToyProgram(true);
  const faults::LosslessChannel channel;
  Simulator sim(p, channel, 1000);
  ClientRequest req;
  req.file = 0;
  req.start_slot = 1;
  req.deadline_slots = 3;  // Too tight for 5 blocks.
  auto outcome = sim.Retrieve(req);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->completed);
  EXPECT_FALSE(outcome->met_deadline);
  req.deadline_slots = 16;
  outcome = sim.Retrieve(req);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->met_deadline);
}

TEST(SimulatorTest, WorkloadAggregation) {
  const auto p = ToyProgram(true);
  const faults::LosslessChannel channel;
  Simulator sim(p, channel, 5000);
  WorkloadConfig config;
  config.requests_per_file = 200;
  config.seed = 7;
  auto metrics = sim.RunWorkload(config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  ASSERT_EQ(metrics->per_file.size(), 2u);
  EXPECT_EQ(metrics->TotalAttempts(), 400u);
  // Fault-free: everything completes within its d(0) = 16-slot deadline.
  EXPECT_EQ(metrics->OverallMissRate(), 0.0);
  for (const FileMetrics& fm : metrics->per_file) {
    EXPECT_EQ(fm.completed, 200u);
    EXPECT_EQ(fm.incomplete, 0u);
    EXPECT_GE(fm.latency.min(), 1.0);
    EXPECT_LE(fm.latency.max(), 16.0);
  }
  // Deterministic reruns.
  auto metrics2 = sim.RunWorkload(config);
  ASSERT_TRUE(metrics2.ok());
  EXPECT_EQ(metrics->per_file[0].latency.mean(),
            metrics2->per_file[0].latency.mean());
}

TEST(SimulatorTest, WorkloadMissRateGrowsWithErrorRate) {
  const auto p = ToyProgram(true);
  WorkloadConfig config;
  config.requests_per_file = 300;
  double prev_miss = -1.0;
  for (double rate : {0.0, 0.2, 0.5}) {
    const faults::BernoulliChannel channel(rate, 11);
    Simulator sim(p, channel, 20000);
    auto metrics = sim.RunWorkload(config);
    ASSERT_TRUE(metrics.ok());
    EXPECT_GE(metrics->OverallMissRate(), prev_miss);
    prev_miss = metrics->OverallMissRate();
  }
  EXPECT_GT(prev_miss, 0.0);
}

TEST(SimulatorTest, HorizonTooSmallForWorkload) {
  const auto p = ToyProgram(true);
  const faults::LosslessChannel channel;
  Simulator sim(p, channel, 30);
  WorkloadConfig config;
  EXPECT_FALSE(sim.RunWorkload(config).ok());
}

// A data cycle past 2^64 slots: the tail of four data cycles fits no
// horizon, so the workload is rejected.
TEST(SimulatorTest, DataCyclePastSixtyFourBitsIsRejected) {
  auto p = broadcast::PrimeRotationProgram();
  ASSERT_TRUE(p.ok()) << p.status();
  const faults::LosslessChannel channel;
  Simulator sim(*p, channel, 5000);
  WorkloadConfig config;
  config.requests_per_file = 10;
  const auto metrics = sim.RunWorkload(config);
  EXPECT_TRUE(metrics.status().IsInvalidArgument()) << metrics.status();
}

// A real-time transaction reads several files from one start slot and
// misses when any of its items is late, so flat misses compound with
// transaction size while AIDA masks the losses. Each transaction here is
// built from the per-file retrievals at its start slot: its latency is the
// slowest item's, so it meets the joint deadline iff every item does. On 8
// files of 6 blocks (AIDA n = 12) at 8% i.i.d. loss under a joint deadline
// of three periods, AIDA misses no more often than flat at every size, and
// flat's miss rate does not fall with size by more than sampling noise.
TEST(TransactionTest, AidaMissesNoMoreThanFlatAtEverySize) {
  const auto build = [](bool ida) {
    std::vector<broadcast::FlatFileSpec> files;
    for (int i = 0; i < 8; ++i) {
      files.push_back({"F" + std::to_string(i), 6, ida ? 12u : 6u, {}});
    }
    auto p = broadcast::BuildFlatProgram(files,
                                         broadcast::FlatLayout::kSpread);
    EXPECT_TRUE(p.ok());
    return *p;
  };
  const broadcast::BroadcastProgram aida = build(true);
  const broadcast::BroadcastProgram flat = build(false);
  const faults::BernoulliChannel channel(0.08, 777);
  constexpr std::uint64_t kHorizon = 20000;
  constexpr std::uint64_t kTransactions = 1000;
  const std::uint64_t deadline = 3 * aida.period();
  // Transaction t of size k draws its start slot, then its k distinct
  // files, from RNG stream t of `seed`. Starts leave the horizon's last
  // four data cycles (or the deadline, if longer) for the retrievals.
  const auto miss_rate = [&](const broadcast::BroadcastProgram& program,
                             broadcast::ClientModel model, std::size_t k,
                             std::uint64_t seed) {
    const Simulator sim(program, channel, kHorizon);
    const std::uint64_t start_range =
        kHorizon - std::max(deadline, 4 * program.DataCycleLength());
    std::uint64_t misses = 0;
    for (std::uint64_t t = 0; t < kTransactions; ++t) {
      Rng rng = runtime::StreamRng(seed, t);
      const std::uint64_t start = rng.Uniform(start_range);
      bool met = true;
      for (const std::size_t f : rng.SampleWithoutReplacement(8, k)) {
        const auto item = sim.Retrieve(
            {static_cast<broadcast::FileIndex>(f), start, deadline, model});
        EXPECT_TRUE(item.ok()) << item.status();
        met = met && item.ok() && item->met_deadline;
      }
      if (!met) ++misses;
    }
    return static_cast<double>(misses) / kTransactions;
  };
  double prev_flat = 0.0;
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    const std::uint64_t seed = 4096 + k;
    const double a = miss_rate(aida, broadcast::ClientModel::kIda, k, seed);
    const double f = miss_rate(flat, broadcast::ClientModel::kFlat, k, seed);
    EXPECT_LE(a, f) << k << " items";
    EXPECT_GE(f, prev_flat - 0.02) << k << " items";
    prev_flat = f;
  }
  EXPECT_GT(prev_flat, 0.0);
}

TEST(MetricsTest, ToStringContainsFileNames) {
  SimulationMetrics m;
  FileMetrics fm;
  fm.file_name = "alpha";
  fm.completed = 3;
  fm.latency.Add(4.0);
  m.per_file.push_back(fm);
  EXPECT_NE(m.ToString().find("alpha"), std::string::npos);
}

}  // namespace
}  // namespace bdisk::sim
