// Tests for epoch schedules and the epoch-aware simulator, server, and
// client: validation, swap semantics, and the hot-swap reconstruction
// guarantee (blocks collected across a swap still reconstruct, bit-exact).

#include "sim/epoch.h"

#include <gtest/gtest.h>

#include "bdisk/flat_builder.h"
#include "common/random.h"
#include "faults/channel_model.h"
#include "sim/client.h"
#include "sim/server.h"
#include "sim/simulation.h"

namespace bdisk::sim {
namespace {

using broadcast::BroadcastProgram;
using broadcast::FlatFileSpec;
using broadcast::FlatLayout;

// Two programs over the same three files (same geometry), different
// layouts — a legal hot-swap pair.
BroadcastProgram ProgramA() {
  auto p = BuildFlatProgram({{"a", 2, 4, {}}, {"b", 3, 5, {}},
                             {"c", 4, 6, {}}},
                            FlatLayout::kContiguous);
  EXPECT_TRUE(p.ok()) << p.status();
  return *p;
}

BroadcastProgram ProgramB() {
  auto p = BuildFlatProgram({{"a", 2, 4, {}}, {"b", 3, 5, {}},
                             {"c", 4, 6, {}}},
                            FlatLayout::kSpread);
  EXPECT_TRUE(p.ok()) << p.status();
  return *p;
}

TEST(EpochScheduleTest, SingleWrapsOneProgram) {
  const EpochSchedule schedule = EpochSchedule::Single(ProgramA());
  EXPECT_EQ(schedule.epoch_count(), 1u);
  EXPECT_EQ(schedule.file_count(), 3u);
  EXPECT_EQ(schedule.EpochIndexAt(0), 0u);
  EXPECT_EQ(schedule.EpochIndexAt(123456), 0u);
}

TEST(EpochScheduleTest, RejectsNonZeroFirstStart) {
  std::vector<ProgramEpoch> epochs;
  epochs.push_back({5, ProgramA()});
  EXPECT_FALSE(EpochSchedule::Create(std::move(epochs)).ok());
}

TEST(EpochScheduleTest, RejectsUnalignedSwap) {
  const BroadcastProgram a = ProgramA();  // Period 9.
  std::vector<ProgramEpoch> epochs;
  epochs.push_back({0, a});
  epochs.push_back({a.period() + 1, ProgramB()});  // Mid-period.
  auto schedule = EpochSchedule::Create(std::move(epochs));
  ASSERT_FALSE(schedule.ok());
  EXPECT_NE(schedule.status().message().find("period boundary"),
            std::string::npos);
}

TEST(EpochScheduleTest, RejectsGeometryChange) {
  auto grown = BuildFlatProgram({{"a", 2, 4, {}}, {"b", 3, 5, {}},
                                 {"c", 4, 7, {}}},  // n changed: 6 -> 7.
                                FlatLayout::kContiguous);
  ASSERT_TRUE(grown.ok());
  const BroadcastProgram a = ProgramA();
  std::vector<ProgramEpoch> epochs;
  epochs.push_back({0, a});
  epochs.push_back({a.period(), *grown});
  auto schedule = EpochSchedule::Create(std::move(epochs));
  ASSERT_FALSE(schedule.ok());
  EXPECT_NE(schedule.status().message().find("geometry"), std::string::npos);
}

TEST(EpochScheduleTest, TransmissionsSwitchAtTheBoundary) {
  const BroadcastProgram a = ProgramA();
  const BroadcastProgram b = ProgramB();
  const std::uint64_t swap = 2 * a.period();
  std::vector<ProgramEpoch> epochs;
  epochs.push_back({0, a});
  epochs.push_back({swap, b});
  auto schedule = EpochSchedule::Create(std::move(epochs));
  ASSERT_TRUE(schedule.ok()) << schedule.status();

  for (std::uint64_t t = 0; t < swap; ++t) {
    EXPECT_EQ(schedule->TransmissionAt(t), a.TransmissionAt(t)) << t;
    EXPECT_EQ(schedule->EpochIndexAt(t), 0u);
  }
  // After the swap the new program governs, rotation restarted at the
  // boundary.
  for (std::uint64_t t = swap; t < swap + 3 * b.period(); ++t) {
    EXPECT_EQ(schedule->TransmissionAt(t), b.TransmissionAt(t - swap)) << t;
    EXPECT_EQ(schedule->EpochIndexAt(t), 1u);
  }
}

TEST(EpochSimulatorTest, SingleEpochMatchesPlainSimulator) {
  const BroadcastProgram a = ProgramA();
  const EpochSchedule schedule = EpochSchedule::Single(a);
  const faults::BernoulliChannel channel(0.1, 77);
  Simulator plain(a, channel, 20000);
  Simulator epoch(schedule, channel, 20000);

  WorkloadConfig config;
  config.requests_per_file = 300;
  config.seed = 5;
  auto m1 = plain.RunWorkload(config);
  auto m2 = epoch.RunWorkload(config);
  ASSERT_TRUE(m1.ok()) << m1.status();
  ASSERT_TRUE(m2.ok()) << m2.status();
  ASSERT_EQ(m1->per_file.size(), m2->per_file.size());
  for (std::size_t f = 0; f < m1->per_file.size(); ++f) {
    EXPECT_EQ(m1->per_file[f].completed, m2->per_file[f].completed);
    EXPECT_EQ(m1->per_file[f].latency.sum(), m2->per_file[f].latency.sum());
    EXPECT_EQ(m1->per_file[f].errors_observed,
              m2->per_file[f].errors_observed);
  }
}

TEST(EpochSimulatorTest, RunRequestsMatchesRetrieve) {
  const BroadcastProgram a = ProgramA();
  const faults::BernoulliChannel channel(0.05, 3);
  Simulator sim(a, channel, 5000);
  std::vector<ClientRequest> requests;
  for (std::uint64_t k = 0; k < 50; ++k) {
    ClientRequest req;
    req.file = static_cast<broadcast::FileIndex>(k % 3);
    req.start_slot = 17 * k;
    requests.push_back(req);
  }
  auto metrics = sim.RunRequests(requests);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  RunningStats expected;
  std::uint64_t completed = 0;
  for (const ClientRequest& req : requests) {
    auto outcome = sim.Retrieve(req);
    ASSERT_TRUE(outcome.ok());
    if (outcome->completed) {
      ++completed;
      expected.Add(static_cast<double>(outcome->latency));
    }
  }
  std::uint64_t got_completed = 0;
  double got_sum = 0.0;
  for (const auto& fm : metrics->per_file) {
    got_completed += fm.completed;
    got_sum += fm.latency.sum();
  }
  EXPECT_EQ(got_completed, completed);
  EXPECT_DOUBLE_EQ(got_sum, expected.sum());
}

TEST(EpochSimulatorTest, RunRequestsRejectsBadRequests) {
  const BroadcastProgram a = ProgramA();
  const faults::LosslessChannel channel;
  Simulator sim(a, channel, 1000);
  ClientRequest bad_file;
  bad_file.file = 99;
  EXPECT_FALSE(sim.RunRequests({bad_file}).ok());
  ClientRequest bad_start;
  bad_start.start_slot = 1000;
  EXPECT_FALSE(sim.RunRequests({bad_start}).ok());
}

// The acceptance-criteria equivalence test: a byte-level retrieval that
// spans a hot swap reconstructs bit-identically to a from-scratch
// retrieval under the new program alone.
TEST(HotSwapEquivalenceTest, ReconstructionSpanningSwapIsBitIdentical) {
  const BroadcastProgram a = ProgramA();
  const BroadcastProgram b = ProgramB();
  const std::uint64_t swap = a.period();  // Swap after one period.
  std::vector<ProgramEpoch> epochs;
  epochs.push_back({0, a});
  epochs.push_back({swap, b});
  auto schedule = EpochSchedule::Create(std::move(epochs));
  ASSERT_TRUE(schedule.ok()) << schedule.status();

  constexpr std::size_t kBlockSize = 48;
  Rng rng(2026);
  std::vector<std::vector<std::uint8_t>> contents;
  for (std::size_t f = 0; f < a.file_count(); ++f) {
    std::vector<std::uint8_t> data(a.files()[f].m * kBlockSize);
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.Uniform(256));
    contents.push_back(std::move(data));
  }
  auto swapping = BroadcastServer::Create(*schedule, contents, kBlockSize);
  ASSERT_TRUE(swapping.ok()) << swapping.status();
  auto fresh = BroadcastServer::Create(b, contents, kBlockSize);
  ASSERT_TRUE(fresh.ok()) << fresh.status();

  const std::uint64_t horizon = swap + 50 * b.DataCycleLength();
  const faults::LosslessChannel channel;
  for (broadcast::FileIndex f = 0; f < a.file_count(); ++f) {
    // Start inside epoch 0, late enough that completion crosses the swap:
    // file c's m = 4 blocks cannot all be heard in the few pre-swap slots
    // left after `start`, and a and b are checked at every viable start.
    for (std::uint64_t start = 1; start < swap; ++start) {
      auto spanning =
          RunRetrievalSession(*swapping, channel, f, start, horizon);
      ASSERT_TRUE(spanning.ok()) << spanning.status();
      ASSERT_TRUE(spanning->completed);
      if (spanning->completion_slot < swap) continue;  // Did not span.
      EXPECT_GE(spanning->epochs_spanned, 1u);
      // Bit-identical to the ground truth...
      EXPECT_EQ(spanning->data, contents[f]) << "file " << f << " start "
                                             << start;
      // ...and to a from-scratch retrieval under the new program alone.
      auto from_scratch =
          RunRetrievalSession(*fresh, channel, f, 0, horizon);
      ASSERT_TRUE(from_scratch.ok()) << from_scratch.status();
      ASSERT_TRUE(from_scratch->completed);
      EXPECT_EQ(spanning->data, from_scratch->data)
          << "file " << f << " start " << start;
    }
  }

  // At least one session per file must actually have collected blocks
  // under both epochs (the guarantee is vacuous otherwise).
  for (broadcast::FileIndex f = 0; f < a.file_count(); ++f) {
    bool spanned_both = false;
    for (std::uint64_t start = 1; start < swap && !spanned_both; ++start) {
      auto session =
          RunRetrievalSession(*swapping, channel, f, start, horizon);
      ASSERT_TRUE(session.ok());
      spanned_both = session->completed && session->epochs_spanned >= 2;
    }
    EXPECT_TRUE(spanned_both) << "file " << f;
  }
}

}  // namespace
}  // namespace bdisk::sim
