// Tests for BroadcastProgram, built around the paper's Figures 5 and 6.

#include "bdisk/program.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "prime_rotation_program.h"

namespace bdisk::broadcast {
namespace {

// The paper's Figure 6 program: files A (m=5, n=10) and B (m=3, n=6),
// period 8, layout A B A A B A B A, data cycle 16.
BroadcastProgram Figure6Program() {
  std::vector<ProgramFile> files{
      {"A", 5, 10, {}},
      {"B", 3, 6, {}},
  };
  std::vector<FileIndex> slots{0, 1, 0, 0, 1, 0, 1, 0};
  auto p = BroadcastProgram::Create(std::move(files), std::move(slots));
  EXPECT_TRUE(p.ok());
  return *p;
}

// The Figure 5 program: same layout, no dispersal (n = m).
BroadcastProgram Figure5Program() {
  std::vector<ProgramFile> files{
      {"A", 5, 5, {}},
      {"B", 3, 3, {}},
  };
  std::vector<FileIndex> slots{0, 1, 0, 0, 1, 0, 1, 0};
  auto p = BroadcastProgram::Create(std::move(files), std::move(slots));
  EXPECT_TRUE(p.ok());
  return *p;
}

TEST(ProgramTest, CreateValidation) {
  EXPECT_FALSE(BroadcastProgram::Create({}, {0}).ok());
  EXPECT_FALSE(BroadcastProgram::Create({{"A", 1, 1, {}}}, {}).ok());
  // n < m.
  EXPECT_FALSE(BroadcastProgram::Create({{"A", 3, 2, {}}}, {0}).ok());
  // Slot referencing unknown file.
  EXPECT_FALSE(BroadcastProgram::Create({{"A", 1, 1, {}}}, {1}).ok());
  // File never broadcast.
  EXPECT_FALSE(
      BroadcastProgram::Create({{"A", 1, 1, {}}, {"B", 1, 1, {}}}, {0}).ok());
}

TEST(ProgramTest, PeriodAndCounts) {
  const BroadcastProgram p = Figure6Program();
  EXPECT_EQ(p.period(), 8u);
  EXPECT_EQ(p.CountOf(0), 5u);
  EXPECT_EQ(p.CountOf(1), 3u);
  EXPECT_DOUBLE_EQ(p.Utilization(), 1.0);
}

// The paper: "While the broadcast period for the broadcast disk is still 8,
// ... resulting in a program data cycle of 16."
TEST(ProgramTest, Figure6DataCycleIs16) {
  const BroadcastProgram p = Figure6Program();
  EXPECT_EQ(p.DataCycleLength(), 16u);
}

TEST(ProgramTest, Figure5DataCycleEqualsPeriod) {
  const BroadcastProgram p = Figure5Program();
  EXPECT_EQ(p.DataCycleLength(), 8u);
}

TEST(ProgramTest, RotationCoversAllDispersedBlocks) {
  const BroadcastProgram p = Figure6Program();
  // Across one data cycle, file A must transmit blocks 0..9 exactly once
  // and file B blocks 0..5 exactly once.
  std::multiset<std::uint32_t> a_blocks;
  std::multiset<std::uint32_t> b_blocks;
  for (std::uint64_t t = 0; t < p.DataCycleLength(); ++t) {
    const auto tx = p.TransmissionAt(t);
    ASSERT_TRUE(tx.has_value());
    if (tx->file == 0) {
      a_blocks.insert(tx->block_index);
    } else {
      b_blocks.insert(tx->block_index);
    }
  }
  EXPECT_EQ(a_blocks.size(), 10u);
  EXPECT_EQ(b_blocks.size(), 6u);
  for (std::uint32_t k = 0; k < 10; ++k) EXPECT_EQ(a_blocks.count(k), 1u);
  for (std::uint32_t k = 0; k < 6; ++k) EXPECT_EQ(b_blocks.count(k), 1u);
}

TEST(ProgramTest, RotationIsPeriodicWithDataCycle) {
  const BroadcastProgram p = Figure6Program();
  for (std::uint64_t t = 0; t < 2 * p.DataCycleLength(); ++t) {
    const auto a = p.TransmissionAt(t);
    const auto b = p.TransmissionAt(t + p.DataCycleLength());
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(*a, *b) << "slot " << t;
    }
  }
}

TEST(ProgramTest, ConsecutiveTransmissionsCarryDistinctBlocks) {
  const BroadcastProgram p = Figure6Program();
  // Any n consecutive transmissions of a file have pairwise distinct
  // blocks; check runs of 5 for A starting at every occurrence.
  const auto& occ = p.OccurrencesOf(0);
  for (std::uint64_t start = 0; start < p.DataCycleLength(); ++start) {
    std::set<std::uint32_t> run;
    std::uint64_t count = 0;
    for (std::uint64_t t = start; count < 5; ++t) {
      const auto tx = p.TransmissionAt(t);
      if (!tx.has_value() || tx->file != 0) continue;
      run.insert(tx->block_index);
      ++count;
    }
    EXPECT_EQ(run.size(), 5u) << "start " << start;
  }
  (void)occ;
}

TEST(ProgramTest, FileAtAndIdle) {
  std::vector<ProgramFile> files{{"A", 1, 1, {}}};
  std::vector<FileIndex> slots{0, BroadcastProgram::kIdleSlot};
  auto p = BroadcastProgram::Create(std::move(files), std::move(slots));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->FileAt(0), std::optional<FileIndex>(0));
  EXPECT_EQ(p->FileAt(1), std::nullopt);
  EXPECT_EQ(p->FileAt(2), std::optional<FileIndex>(0));  // Wraps.
  EXPECT_FALSE(p->TransmissionAt(1).has_value());
  EXPECT_DOUBLE_EQ(p->Utilization(), 0.5);
}

TEST(ProgramTest, MaxGapOf) {
  const BroadcastProgram p = Figure6Program();
  // A at slots 0,2,3,5,7: gaps 2,1,2,2, wrap 7->8: 1. Max 2.
  EXPECT_EQ(p.MaxGapOf(0), 2u);
  // B at slots 1,4,6: gaps 3,2, wrap 6->9: 3. Max 3.
  EXPECT_EQ(p.MaxGapOf(1), 3u);
}

TEST(ProgramTest, VerifyBroadcastConditionsPass) {
  // A needs 5 of every 8 even with 2 faults? A occupies 5 of every 8
  // slots... bc(5, [8]) holds; with fault levels 8 is too tight, so use
  // [8] only. B: 3 of every 8.
  std::vector<ProgramFile> files{
      {"A", 5, 10, {8}},
      {"B", 3, 6, {8}},
  };
  std::vector<FileIndex> slots{0, 1, 0, 0, 1, 0, 1, 0};
  auto p = BroadcastProgram::Create(std::move(files), std::move(slots));
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->VerifyBroadcastConditions().ok());
}

TEST(ProgramTest, VerifyBroadcastConditionsFail) {
  std::vector<ProgramFile> files{
      {"A", 5, 10, {8, 8}},  // Level 1 needs 6 of every 8: impossible here.
      {"B", 3, 6, {}},
  };
  std::vector<FileIndex> slots{0, 1, 0, 0, 1, 0, 1, 0};
  auto p = BroadcastProgram::Create(std::move(files), std::move(slots));
  ASSERT_TRUE(p.ok());
  Status st = p->VerifyBroadcastConditions();
  EXPECT_TRUE(st.IsInfeasible());
  EXPECT_NE(st.message().find("A"), std::string::npos);
}

TEST(ProgramTest, ToStringShowsRotatedBlocks) {
  const BroadcastProgram p = Figure6Program();
  // First period: A0 B0 A1 A2 B1 A3 B2 A4; second period continues A5...
  const std::string two = p.ToString(2);
  EXPECT_EQ(two,
            "A0 B0 A1 A2 B1 A3 B2 A4 A5 B3 A6 A7 B4 A8 B5 A9");
}

// The rotation arithmetic against a walk of the slots: the k-th slot the
// walk finds for a file is its k-th transmission, and every slot's next
// transmission is the first the walk finds at or after it.
TEST(ProgramTest, TransmissionArithmeticMatchesSlotWalk) {
  auto idle = BroadcastProgram::Create(
      {{"A", 2, 3, {}}, {"B", 1, 2, {}}},
      {0, BroadcastProgram::kIdleSlot, 1, 0, BroadcastProgram::kIdleSlot});
  ASSERT_TRUE(idle.ok()) << idle.status();
  for (const BroadcastProgram& p :
       {Figure5Program(), Figure6Program(), *idle}) {
    for (FileIndex f = 0; f < p.file_count(); ++f) {
      std::vector<std::uint64_t> walked;
      for (std::uint64_t t = 0; t < 3 * p.DataCycleLength(); ++t) {
        if (p.FileAt(t) == f) walked.push_back(t);
      }
      for (std::uint64_t k = 0; k < walked.size(); ++k) {
        EXPECT_EQ(p.SlotOfTransmission(f, k), walked[k]) << "k " << k;
        const auto tx = p.TransmissionAt(walked[k]);
        ASSERT_TRUE(tx.has_value());
        EXPECT_EQ(tx->block_index, k % p.files()[f].n) << "k " << k;
      }
      std::uint64_t next = 0;
      for (std::uint64_t t = 0; t <= walked.back(); ++t) {
        while (walked[next] < t) ++next;
        EXPECT_EQ(p.TransmissionAtOrAfter(f, t), next) << "slot " << t;
      }
    }
  }
}

TEST(ProgramTest, DataCycleWithCoprimeRotation) {
  // One file, 2 slots per period, rotating 3 blocks: data cycle =
  // period * 3 / gcd(2,3) = 3 periods.
  std::vector<ProgramFile> files{{"A", 2, 3, {}}};
  std::vector<FileIndex> slots{0, 0, BroadcastProgram::kIdleSlot};
  auto p = BroadcastProgram::Create(std::move(files), std::move(slots));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->DataCycleLength(), 9u);
}

TEST(ProgramTest, DataCyclePastSixtyFourBitsSaturates) {
  // 15 * (2 * 3 * ... * 47) fits in 64 bits and is exact.
  auto fits = PrimeRotationProgram(15);
  ASSERT_TRUE(fits.ok()) << fits.status();
  EXPECT_EQ(fits->DataCycleLength(), 15u * 614889782588491410u);
  // 16 * (2 * 3 * ... * 53) does not: the program is valid and its cycle
  // reads UINT64_MAX.
  auto past = PrimeRotationProgram(16);
  ASSERT_TRUE(past.ok()) << past.status();
  EXPECT_EQ(past->DataCycleLength(), std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
}  // namespace bdisk::broadcast
