// Tests for the exact worst-case delay analysis (Lemmas 1 and 2, Figure 7).

#include "bdisk/delay_analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bdisk/block_size.h"
#include "bdisk/flat_builder.h"
#include "pinwheel/composite_scheduler.h"
#include "seeded_programs.h"

namespace bdisk::broadcast {
namespace {

// Figure 5/6 toy system: A (5 blocks), B (3 blocks), period 8.
BroadcastProgram ToyProgram(bool ida, FlatLayout layout) {
  std::vector<FlatFileSpec> files{
      {"A", 5, ida ? 10u : 5u, {}},
      {"B", 3, ida ? 6u : 3u, {}},
  };
  auto p = BuildFlatProgram(files, layout);
  EXPECT_TRUE(p.ok());
  return *p;
}

// Flat (n = m) systems beyond the toy one for the Lemma 1 and 2 checks: a
// uniform system, the Section 2.3 sizing example (10 files x 20 blocks)
// and a skewed one.
std::vector<std::vector<FlatFileSpec>> LemmaSystems() {
  std::vector<FlatFileSpec> paper200;
  for (int i = 0; i < 10; ++i) {
    paper200.push_back({"F" + std::to_string(i), 20, 20, {}});
  }
  return {
      {{"F0", 8, 8, {}}, {"F1", 8, 8, {}}, {"F2", 8, 8, {}}, {"F3", 8, 8, {}}},
      paper200,
      {{"big", 24, 24, {}}, {"mid", 6, 6, {}}, {"sm", 2, 2, {}}},
  };
}

// The AIDA variant of a flat system: every file dispersed to n = m + r.
BroadcastProgram Dispersed(std::vector<FlatFileSpec> files, std::uint32_t r) {
  for (FlatFileSpec& f : files) f.n = f.m + r;
  auto p = BuildFlatProgram(files, FlatLayout::kSpread);
  EXPECT_TRUE(p.ok());
  return *p;
}

TEST(DelayAnalyzerTest, UnknownFileRejected) {
  const BroadcastProgram p = ToyProgram(true, FlatLayout::kSpread);
  DelayAnalyzer analyzer(p);
  EXPECT_FALSE(analyzer.WorstCaseDelay(7, 1, ClientModel::kIda).ok());
}

TEST(DelayAnalyzerTest, FlatModelRequiresNEqualsM) {
  const BroadcastProgram p = ToyProgram(true, FlatLayout::kSpread);
  DelayAnalyzer analyzer(p);
  EXPECT_TRUE(analyzer.WorstCaseCompletion(0, 0, 0, ClientModel::kFlat)
                  .status()
                  .IsInvalidArgument());
}

TEST(DelayAnalyzerTest, ZeroErrorsZeroDelay) {
  for (bool ida : {false, true}) {
    const BroadcastProgram p = ToyProgram(ida, FlatLayout::kSpread);
    DelayAnalyzer analyzer(p);
    const ClientModel model = ida ? ClientModel::kIda : ClientModel::kFlat;
    for (FileIndex f = 0; f < 2; ++f) {
      auto d = analyzer.WorstCaseDelay(f, 0, model);
      ASSERT_TRUE(d.ok()) << d.status();
      EXPECT_EQ(*d, 0u);
    }
  }
}

// Lemma 1: for a flat (non-IDA) program, the worst-case delay with r errors
// is exactly r * tau when each block is transmitted once per period.
TEST(DelayAnalyzerTest, Lemma1ExactForFlatPrograms) {
  std::vector<BroadcastProgram> programs{
      ToyProgram(false, FlatLayout::kContiguous),
      ToyProgram(false, FlatLayout::kSpread)};
  for (const std::vector<FlatFileSpec>& files : LemmaSystems()) {
    auto p = BuildFlatProgram(files, FlatLayout::kSpread);
    ASSERT_TRUE(p.ok()) << p.status();
    programs.push_back(*p);
  }
  for (const BroadcastProgram& p : programs) {
    DelayAnalyzer analyzer(p);
    for (FileIndex f = 0; f < p.file_count(); ++f) {
      for (std::uint32_t r = 1; r <= 5; ++r) {
        auto d = analyzer.WorstCaseDelay(f, r, ClientModel::kFlat);
        ASSERT_TRUE(d.ok()) << d.status();
        EXPECT_EQ(*d, analyzer.Lemma1Bound(r))
            << "period " << p.period() << " file " << f << " r " << r;
      }
    }
  }
}

// Lemma 2: with AIDA the worst-case delay is bounded by r * Delta. The
// lemma's premise is that enough distinct dispersed blocks exist (AIDA
// transmits n >= m + r blocks when r faults must be masked), so the bound
// is asserted for r <= n - m; beyond that the client must wait for
// rotation repeats and only the generic data-cycle bound applies.
TEST(DelayAnalyzerTest, Lemma2BoundHolds) {
  for (FlatLayout layout : {FlatLayout::kContiguous, FlatLayout::kSpread}) {
    const BroadcastProgram p = ToyProgram(true, layout);
    DelayAnalyzer analyzer(p);
    for (FileIndex f = 0; f < 2; ++f) {
      const std::uint32_t max_masked = p.files()[f].n - p.files()[f].m;
      for (std::uint32_t r = 0; r <= 5; ++r) {
        auto d = analyzer.WorstCaseDelay(f, r, ClientModel::kIda);
        ASSERT_TRUE(d.ok()) << d.status();
        if (r <= max_masked) {
          EXPECT_LE(*d, analyzer.Lemma2Bound(f, r))
              << "file " << f << " r " << r << " layout "
              << static_cast<int>(layout);
        } else {
          EXPECT_LE(*d, r * p.DataCycleLength());
        }
      }
    }
  }
  // The other systems, dispersed to n = m + 4 so that the premise holds
  // for every r <= 4. The delay also stays within the flat program's
  // r * tau, its exact delay by Lemma 1.
  for (const std::vector<FlatFileSpec>& files : LemmaSystems()) {
    auto flat = BuildFlatProgram(files, FlatLayout::kSpread);
    ASSERT_TRUE(flat.ok()) << flat.status();
    const BroadcastProgram p = Dispersed(files, 4);
    DelayAnalyzer analyzer(p);
    for (FileIndex f = 0; f < p.file_count(); ++f) {
      for (std::uint32_t r = 1; r <= 4; ++r) {
        auto d = analyzer.WorstCaseDelay(f, r, ClientModel::kIda);
        ASSERT_TRUE(d.ok()) << d.status();
        EXPECT_LE(*d, analyzer.Lemma2Bound(f, r))
            << "period " << p.period() << " file " << f << " r " << r;
        EXPECT_LE(*d, r * flat->period()) << "file " << f << " r " << r;
      }
    }
  }
}

// Section 2.3's sizing: 10 files x 20 blocks make a 200-slot flat period,
// and dispersing each file to 24 blocks spreads same-file transmissions at
// most Delta = 10 apart, a tau / Delta = 20x faster recovery per error.
TEST(DelayAnalyzerTest, PaperSizingExample) {
  const std::vector<FlatFileSpec> files = LemmaSystems()[1];
  auto flat = BuildFlatProgram(files, FlatLayout::kSpread);
  ASSERT_TRUE(flat.ok()) << flat.status();
  EXPECT_EQ(flat->period(), 200u);
  const BroadcastProgram aida = Dispersed(files, 4);
  std::uint64_t max_delta = 0;
  for (FileIndex f = 0; f < aida.file_count(); ++f) {
    max_delta = std::max(max_delta, aida.MaxGapOf(f));
  }
  EXPECT_EQ(max_delta, 10u);
}

// Figure 7 on the toy system, A (m = 5, n = 10) and B (m = 3, n = 6) in a
// period of 8, computed exactly under the adversarial model (worst start,
// worst placement of r lost transmissions of the retrieved file). Without
// IDA the delay is r * tau = 8r (Lemma 1, tight); with IDA it grows by at
// most Delta per error, so IDA strictly wins for every r >= 1. The paper's
// with-IDA column for A is labelled an estimate; the exact figures never
// exceed it.
TEST(DelayAnalyzerTest, IdaBeatsFlatForEveryErrorCount) {
  const BroadcastProgram ida = ToyProgram(true, FlatLayout::kSpread);
  const BroadcastProgram flat = ToyProgram(false, FlatLayout::kSpread);
  ASSERT_EQ(ida.period(), 8u);
  ASSERT_EQ(ida.DataCycleLength(), 16u);
  DelayAnalyzer ida_analyzer(ida);
  DelayAnalyzer flat_analyzer(flat);
  const std::uint64_t with_ida[2][6] = {{0, 2, 4, 5, 7, 8},
                                        {0, 3, 6, 8, 16, 19}};
  const std::uint64_t paper_estimate_a[6] = {0, 3, 4, 6, 7, 8};
  for (FileIndex f = 0; f < 2; ++f) {
    for (std::uint32_t r = 0; r <= 5; ++r) {
      auto d = ida_analyzer.WorstCaseDelay(f, r, ClientModel::kIda);
      auto without = flat_analyzer.WorstCaseDelay(f, r, ClientModel::kFlat);
      ASSERT_TRUE(d.ok()) << d.status();
      ASSERT_TRUE(without.ok()) << without.status();
      EXPECT_EQ(*d, with_ida[f][r]) << "file " << f << " r " << r;
      EXPECT_EQ(*without, 8u * r) << "file " << f << " r " << r;
      if (f == 0) {
        EXPECT_LE(*d, paper_estimate_a[r]) << "r " << r;
      }
    }
  }
}

TEST(DelayAnalyzerTest, DelayMonotoneInErrors) {
  const BroadcastProgram p = ToyProgram(true, FlatLayout::kSpread);
  DelayAnalyzer analyzer(p);
  for (FileIndex f = 0; f < 2; ++f) {
    std::uint64_t prev = 0;
    for (std::uint32_t r = 0; r <= 6; ++r) {
      auto d = analyzer.WorstCaseDelay(f, r, ClientModel::kIda);
      ASSERT_TRUE(d.ok());
      EXPECT_GE(*d, prev);
      prev = *d;
    }
  }
}

// Fast path vs DP cross-check: for r <= n - m both must agree (the DP is
// exercised by shrinking n... here we force the DP by using r > n - m).
TEST(DelayAnalyzerTest, DpPathHandlesRotationWrap) {
  // File with m=2, n=3: more than 1 error forces wrap handling in the DP.
  std::vector<FlatFileSpec> files{{"F", 2, 3, {}}};
  auto p = BuildFlatProgram(files, FlatLayout::kContiguous);
  ASSERT_TRUE(p.ok());
  DelayAnalyzer analyzer(*p);
  for (std::uint32_t r = 0; r <= 4; ++r) {
    auto d = analyzer.WorstCaseDelay(0, r, ClientModel::kIda);
    ASSERT_TRUE(d.ok()) << d.status();
    // r = 1 is within the AIDA premise (n - m = 1): Lemma 2 applies; larger
    // r waits on rotation repeats and only the data-cycle bound applies.
    if (r <= 1) {
      EXPECT_LE(*d, analyzer.Lemma2Bound(0, r));
    } else {
      EXPECT_LE(*d, r * p->DataCycleLength());
    }
  }
}

// Completion from a fixed start: fast-path formula check. A client starting
// at slot 0 of the Figure-6-style spread program, with n >= m + r, finishes
// at the (m + r)-th transmission of its file.
TEST(DelayAnalyzerTest, CompletionFormulaAtStartZero) {
  const BroadcastProgram p = ToyProgram(true, FlatLayout::kSpread);
  DelayAnalyzer analyzer(p);
  // File B: m = 3, occurrences within data cycle at known slots.
  const auto& occ = p.OccurrencesOf(1);
  ASSERT_EQ(occ.size(), 3u);
  auto c0 = analyzer.WorstCaseCompletion(1, 0, 0, ClientModel::kIda);
  ASSERT_TRUE(c0.ok());
  EXPECT_EQ(*c0, occ[2]);  // Third B transmission.
  auto c1 = analyzer.WorstCaseCompletion(1, 0, 1, ClientModel::kIda);
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(*c1, occ[0] + p.period());  // Fourth = first of next period.
}

// Latency accounting: worst-case latency with zero errors is bounded by
// period + max gap (you can just miss an occurrence).
TEST(DelayAnalyzerTest, LatencyZeroErrorsBounded) {
  const BroadcastProgram p = ToyProgram(true, FlatLayout::kSpread);
  DelayAnalyzer analyzer(p);
  for (FileIndex f = 0; f < 2; ++f) {
    auto lat = analyzer.WorstCaseLatency(f, 0, ClientModel::kIda);
    ASSERT_TRUE(lat.ok());
    EXPECT_LE(*lat, p.period() + p.MaxGapOf(f));
    EXPECT_GE(*lat, p.files()[f].m);  // Needs at least m slots.
  }
}

TEST(DelayAnalyzerTest, LatencyMonotoneInErrors) {
  const BroadcastProgram p = ToyProgram(true, FlatLayout::kSpread);
  DelayAnalyzer analyzer(p);
  std::uint64_t prev = 0;
  for (std::uint32_t r = 0; r <= 5; ++r) {
    auto lat = analyzer.WorstCaseLatency(0, r, ClientModel::kIda);
    ASSERT_TRUE(lat.ok());
    EXPECT_GE(*lat, prev);
    prev = *lat;
  }
}

// The header's definitions by brute force: every start slot of one program
// data cycle, scored through WorstCaseCompletion. The analyzer scores one
// start per transmission of one period; the two must agree, on the closed
// forms and on the DP (n < m + r), where the blocks' rotation matters.
TEST(DelayAnalyzerTest, OnePeriodRowsMatchDataCycleSweep) {
  const std::vector<BroadcastProgram> programs =
      seeded_programs::SeededPrograms(27, 50, 1500);
  std::size_t longer_cycles = 0;
  std::size_t dp_rows = 0;
  for (const BroadcastProgram& p : programs) {
    if (p.DataCycleLength() > p.period()) ++longer_cycles;
    DelayAnalyzer analyzer(p);
    for (FileIndex f = 0; f < p.file_count(); ++f) {
      const ProgramFile& pf = p.files()[f];
      for (std::uint32_t r = 0; r <= 2; ++r) {
        if (pf.n < pf.m + r) ++dp_rows;
        std::uint64_t delay = 0;
        std::uint64_t latency = 0;
        for (std::uint64_t s = 0; s < p.DataCycleLength(); ++s) {
          auto with_errors =
              analyzer.WorstCaseCompletion(f, s, r, ClientModel::kIda);
          auto without_errors =
              analyzer.WorstCaseCompletion(f, s, 0, ClientModel::kIda);
          ASSERT_TRUE(with_errors.ok()) << with_errors.status();
          ASSERT_TRUE(without_errors.ok()) << without_errors.status();
          delay = std::max(delay, *with_errors - *without_errors);
          latency = std::max(latency, *with_errors - s + 1);
        }
        auto d = analyzer.WorstCaseDelay(f, r, ClientModel::kIda);
        auto l = analyzer.WorstCaseLatency(f, r, ClientModel::kIda);
        ASSERT_TRUE(d.ok()) << d.status();
        ASSERT_TRUE(l.ok()) << l.status();
        EXPECT_EQ(*d, delay) << p.ToString() << " file " << f << " r " << r;
        EXPECT_EQ(*l, latency) << p.ToString() << " file " << f << " r " << r;
      }
    }
  }
  EXPECT_GT(longer_cycles, programs.size() / 2);
  EXPECT_GT(dp_rows, 0u);
}

// Two 16 KiB files on a 192 KiB/s channel, `a` within 0.5 s and `nav`
// within 5000 s, one fault each: period 13824 and data cycle 27648 slots.
// A data-cycle walk per occurrence scored these rows in about a minute;
// one period's starts per row score them at once.
TEST(DelayAnalyzerTest, LongLatencySpecRows) {
  const pinwheel::CompositeScheduler scheduler;
  auto choice = ChooseLargestFeasibleBlockSize(
      {{"a", 16384, 0.5, 1}, {"nav", 16384, 5000.0, 1}}, 196608, scheduler);
  ASSERT_TRUE(choice.ok()) << choice.status();
  const BroadcastProgram& p = choice->build.program;
  ASSERT_EQ(p.period(), 13824u);
  ASSERT_EQ(p.DataCycleLength(), 27648u);
  DelayAnalyzer analyzer(p);
  const std::uint64_t rows[2][2] = {{2, 3}, {13824, 27648}};
  for (FileIndex f = 0; f < 2; ++f) {
    for (std::uint32_t r = 0; r <= 1; ++r) {
      auto latency = analyzer.WorstCaseLatency(f, r, ClientModel::kIda);
      ASSERT_TRUE(latency.ok()) << latency.status();
      EXPECT_EQ(*latency, rows[f][r]) << p.files()[f].name << " r " << r;
    }
  }
}

}  // namespace
}  // namespace bdisk::broadcast
