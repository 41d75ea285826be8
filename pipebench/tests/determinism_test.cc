// Determinism checks of the benchmark's workloads: one seed must give
// identical seed-fixed outputs (delays, data age, and event, datagram
// and commit counts) on every run, and another seed must change them.
// Each run is the benchmark's own configuration at the shortest duration
// (two timed rounds), so the suite takes tens of seconds.
//
//   cmake -S pipebench -B .bench_build/pipebench -DPIPEBENCH_BUILD_TESTS=ON
//   cmake --build .bench_build/pipebench --target pipebench_test
//   .bench_build/pipebench/pipebench_test

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "workloads.h"

namespace pipebench {
namespace {

using RunFn = Report (*)(const Options&, Deterministic*);

Options ShortRun(const std::string& workload, std::uint64_t seed) {
  Options options;
  options.workload = workload;
  options.seed = seed;
  options.seconds = 0.01;  // the minimum: two timed rounds
  options.work_dir = "pipebench_test_work";
  std::filesystem::create_directories(options.work_dir);
  return options;
}

void ExpectCorrect(const Report& r) {
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.attempted, 0u);
  for (const std::string& note : r.notes) {
    EXPECT_EQ(note.find("CHECK FAILED"), std::string::npos) << note;
  }
}

void ExpectDeterministic(const std::string& workload, RunFn run) {
  Deterministic a, b, c;
  ExpectCorrect(run(ShortRun(workload, 1), &a));
  ExpectCorrect(run(ShortRun(workload, 1), &b));
  ExpectCorrect(run(ShortRun(workload, 2), &c));
  EXPECT_FALSE(a.delays.empty());
  EXPECT_GT(a.ops, 0u);
  EXPECT_EQ(a, b) << "one seed gave two different outputs";
  EXPECT_NE(a.delays, c.delays) << "another seed did not change the delays";
  EXPECT_NE(a.ages, c.ages) << "another seed did not change the data age";
}

TEST(DeterminismTest, Wire) { ExpectDeterministic("wire_1k", RunWire); }

TEST(DeterminismTest, UpdateChurn) {
  ExpectDeterministic("update_churn", RunChurn);
}

TEST(DeterminismTest, Fleet) { ExpectDeterministic("fleet", RunFleet); }

// The traced runs' raw reports, before CompletePerLayer fills the gaps:
// every name a workload emits must be a per-layer metric, emitted once,
// and together the workloads must emit every per-layer metric.
TEST(DeterminismTest, TracedRunsCoverEveryPerLayerMetric) {
  std::set<std::string> known;
  for (const auto& [name, unit] : PerLayerMetrics()) known.insert(name);
  std::set<std::string> emitted;
  const std::pair<const char*, RunFn> runs[] = {
      {"wire_1k", RunWire}, {"update_churn", RunChurn}, {"fleet", RunFleet}};
  for (const auto& [workload, run] : runs) {
    Options options = ShortRun(workload, 3);
    options.trace = true;
    const Report report = run(options, nullptr);
    ExpectCorrect(report);
    std::set<std::string> names;
    for (const Metric& m : report.metrics) {
      EXPECT_TRUE(known.count(m.name)) << workload << " emits " << m.name;
      EXPECT_TRUE(names.insert(m.name).second)
          << workload << " emits " << m.name << " twice";
    }
    emitted.insert(names.begin(), names.end());
  }
  for (const std::string& name : known) {
    EXPECT_TRUE(emitted.count(name)) << "no workload emits " << name;
  }
}

TEST(DeterminismTest, CompletePerLayerRejectsUnknownNames) {
  Report report;
  report.Add("net.kernel_drop", 0.0, "count");
  CompletePerLayer(&report);
  EXPECT_FALSE(report.correct);
  EXPECT_EQ(report.metrics.size(), PerLayerMetrics().size());
}

}  // namespace
}  // namespace pipebench
