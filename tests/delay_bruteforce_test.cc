// Cross-validation: the DelayAnalyzer's closed forms and adversary DP
// against brute force — enumerate *every* subset of r corrupted
// transmissions through the simulator and take the max completion.
//
// This pins the analyzer's exactness claim: any disagreement between the
// analytic worst case and exhaustive enumeration is a bug in one of them.

#include <gtest/gtest.h>

#include <vector>

#include "bdisk/delay_analysis.h"
#include "bdisk/flat_builder.h"
#include "faults/channel_model.h"
#include "sim/simulation.h"

namespace bdisk::broadcast {
namespace {

// Max completion slot over all ways to corrupt exactly `errors` of the
// file's transmissions at or after `start` (within a generous horizon),
// computed via the simulator.
std::uint64_t BruteForceWorstCompletion(const BroadcastProgram& program,
                                        FileIndex file, std::uint64_t start,
                                        std::uint32_t errors) {
  const ProgramFile& pf = program.files()[file];
  // Candidate transmissions to corrupt: enough to cover the analyzer's own
  // horizon (m + (r+1)n + 2 occurrences).
  const std::size_t horizon_occurrences =
      pf.m + (static_cast<std::size_t>(errors) + 1) * pf.n + 2;
  std::vector<std::uint64_t> slots;
  for (std::uint64_t t = start; slots.size() < horizon_occurrences; ++t) {
    const auto tx = program.TransmissionAt(t);
    if (tx.has_value() && tx->file == file) slots.push_back(t);
  }

  const std::uint64_t sim_horizon = slots.back() + program.DataCycleLength();
  std::uint64_t worst = 0;

  // Enumerate subsets of size `errors` via index recursion.
  std::vector<std::size_t> pick(errors);
  const std::size_t n_slots = slots.size();
  std::vector<std::size_t> stack;
  // Iterative combination enumeration.
  std::vector<std::size_t> idx(errors);
  for (std::size_t i = 0; i < errors; ++i) idx[i] = i;
  bool done = errors > n_slots;
  while (!done) {
    std::vector<std::uint64_t> dead;
    for (std::size_t i = 0; i < errors; ++i) dead.push_back(slots[idx[i]]);
    sim::Simulator simulator(program, faults::LostSlots(dead),
                             sim_horizon + 1);
    sim::ClientRequest req;
    req.file = file;
    req.start_slot = start;
    req.model = pf.n == pf.m ? ClientModel::kFlat : ClientModel::kIda;
    auto outcome = simulator.Retrieve(req);
    EXPECT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->completed);
    worst = std::max(worst, outcome->completion_slot);

    if (errors == 0) break;
    // Next combination.
    std::size_t i = errors;
    while (i > 0) {
      --i;
      if (idx[i] + (errors - i) < n_slots) {
        ++idx[i];
        for (std::size_t j = i + 1; j < errors; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) done = true;
    }
  }
  (void)pick;
  (void)stack;
  return worst;
}

struct Case {
  const char* name;
  std::vector<FlatFileSpec> files;
  FlatLayout layout;
};

class BruteForceTest : public ::testing::TestWithParam<Case> {};

TEST_P(BruteForceTest, AnalyzerMatchesExhaustiveAdversary) {
  const Case& c = GetParam();
  auto program = BuildFlatProgram(c.files, c.layout);
  ASSERT_TRUE(program.ok());
  DelayAnalyzer analyzer(*program);

  for (FileIndex f = 0; f < program->file_count(); ++f) {
    const ProgramFile& pf = program->files()[f];
    const ClientModel model =
        pf.n == pf.m ? ClientModel::kFlat : ClientModel::kIda;
    for (std::uint32_t r = 0; r <= 3; ++r) {
      for (std::uint64_t start = 0; start < program->DataCycleLength();
           start += 3) {  // Subsample starts to keep runtime low.
        auto analytic = analyzer.WorstCaseCompletion(f, start, r, model);
        ASSERT_TRUE(analytic.ok()) << analytic.status();
        const std::uint64_t brute =
            BruteForceWorstCompletion(*program, f, start, r);
        ASSERT_EQ(*analytic, brute)
            << c.name << " file " << f << " r " << r << " start " << start;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, BruteForceTest,
    ::testing::Values(
        Case{"ida_spread",
             {{"A", 3, 6, {}}, {"B", 2, 4, {}}},
             FlatLayout::kSpread},
        Case{"ida_contiguous",
             {{"A", 3, 6, {}}, {"B", 2, 4, {}}},
             FlatLayout::kContiguous},
        Case{"flat_spread",
             {{"A", 3, 3, {}}, {"B", 2, 2, {}}},
             FlatLayout::kSpread},
        Case{"flat_contiguous",
             {{"A", 4, 4, {}}, {"B", 2, 2, {}}},
             FlatLayout::kContiguous},
        Case{"tight_rotation",  // n < m + r for r >= 2: exercises the DP.
             {{"A", 2, 3, {}}, {"B", 1, 2, {}}},
             FlatLayout::kSpread},
        Case{"single_file", {{"A", 4, 8, {}}}, FlatLayout::kSpread}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace bdisk::broadcast
