// Slot-vs-event engine equivalence proof.
//
// The discrete-event engine (sim/event_engine.h) claims byte-identity with
// the slot-by-slot engine, not statistical agreement. This suite enforces
// the claim four ways:
//
//  1. For every committed tests/fixtures/*.scenario, RunWorkloadEvented's
//     MetricsToJson snapshot — serial AND sharded across a thread pool —
//     must equal RunWorkload's serial snapshot byte for byte, and must
//     equal the committed <name>.golden.json byte for byte. The event
//     engine therefore reproduces every golden in the repository without
//     those goldens ever being regenerated for it.
//
//  2. A grid of (workload seed x channel spec) beyond the committed
//     fixtures, so equivalence is not an artifact of the fixture
//     parameters: each grid point compares slot-serial, event-serial, and
//     event-sharded snapshots.
//
//  3. An epoch-schedule workload (hot-swap mid-trace), exercising the
//     engine's epoch-crossing jump arithmetic under the same byte-identity
//     bar.
//
//  4. Explicit request lists: RunRequests against EventEngine::Run fed the
//     same list and the same channel realization, on a program and on a
//     two-epoch schedule, on a list long enough to cross the engine's
//     client blocks, and under bursty loss of about 0.3 across a hot-swap,
//     where many retrievals lose more than n - m transmissions and are
//     walked rather than closed from their lanes. Metrics, the rendered
//     timeline stream and the Chrome trace must all match, serial and
//     sharded.
//
// The pool width defaults to 3 and can be overridden with
// BDISK_EQUIV_THREADS (the CI engine-matrix job runs {1, 3}); byte-identity
// must hold at every width.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bdisk/flat_builder.h"
#include "common/random.h"
#include "faults/channel_spec.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "scenario_util.h"
#include "sim/epoch.h"
#include "sim/event_engine.h"
#include "sim/metrics.h"
#include "sim/simulation.h"

#ifndef BDISK_FIXTURES_DIR
#error "BDISK_FIXTURES_DIR must be defined by the build (CMakeLists.txt)"
#endif

namespace bdisk::sim {
namespace {

namespace fs = std::filesystem;
using scenario_util::BuildProgram;
using scenario_util::DiscoverScenarioNames;
using scenario_util::ParseScenario;
using scenario_util::ReadFileOrDie;
using scenario_util::Scenario;

unsigned PoolWidth() {
  const char* env = std::getenv("BDISK_EQUIV_THREADS");
  if (env == nullptr) return 3;
  const unsigned threads = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  return threads == 0 ? 3 : threads;
}

/// Runs both engines on `simulator` and asserts the three snapshots
/// (slot-serial, event-serial, event-sharded) are byte-identical; returns
/// the common snapshot.
std::string AssertEnginesAgree(const Simulator& simulator,
                               const WorkloadConfig& config,
                               const std::string& label) {
  auto slot = simulator.RunWorkload(config, nullptr);
  EXPECT_TRUE(slot.ok()) << label << ": " << slot.status();
  if (!slot.ok()) return "";
  const std::string expected = MetricsToJson(*slot);

  auto event_serial = simulator.RunWorkloadEvented(config, nullptr);
  EXPECT_TRUE(event_serial.ok()) << label << ": " << event_serial.status();
  if (event_serial.ok()) {
    EXPECT_EQ(expected, MetricsToJson(*event_serial))
        << label << ": event-serial snapshot differs from slot engine";
  }

  runtime::ThreadPool pool(PoolWidth());
  auto event_pooled = simulator.RunWorkloadEvented(config, &pool);
  EXPECT_TRUE(event_pooled.ok()) << label << ": " << event_pooled.status();
  if (event_pooled.ok()) {
    EXPECT_EQ(expected, MetricsToJson(*event_pooled))
        << label << ": event-sharded (" << PoolWidth()
        << " threads) snapshot differs from slot engine";
  }
  return expected;
}

class FixtureEquivalenceTest : public ::testing::TestWithParam<std::string> {};

// Every committed scenario golden, reproduced by the event engine byte for
// byte — serial and sharded — without regenerating any golden.
TEST_P(FixtureEquivalenceTest, EventEngineReproducesGolden) {
  const fs::path fixtures(BDISK_FIXTURES_DIR);
  const Scenario scenario =
      ParseScenario(fixtures / (GetParam() + ".scenario"));
  ASSERT_EQ(scenario.Problem(), "") << GetParam();

  const broadcast::BroadcastProgram program =
      BuildProgram(ReadFileOrDie(fixtures / scenario.spec_file));
  ASSERT_FALSE(::testing::Test::HasFailure());

  auto channel = faults::ParseChannelSpec(scenario.channel);
  ASSERT_TRUE(channel.ok()) << channel.status();

  const Simulator simulator(program, **channel, scenario.horizon);
  WorkloadConfig config;
  config.requests_per_file = scenario.requests_per_file;
  config.seed = scenario.workload_seed;

  const std::string snapshot =
      AssertEnginesAgree(simulator, config, scenario.name);
  ASSERT_FALSE(snapshot.empty());

  const fs::path golden_path = fixtures / (scenario.name + ".golden.json");
  ASSERT_TRUE(fs::exists(golden_path))
      << golden_path << " missing — scenario_test owns golden generation";
  EXPECT_EQ(snapshot, ReadFileOrDie(golden_path))
      << scenario.name
      << ": event-engine snapshot diverged from the committed golden";
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, FixtureEquivalenceTest,
    ::testing::ValuesIn(DiscoverScenarioNames(BDISK_FIXTURES_DIR)),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return scenario_util::ParamName(info.param);
    });

// Equivalence beyond the committed fixtures: a (seed x channel) grid over
// both committed specs, so agreement is not an artifact of fixture choice.
TEST(EngineEquivalenceGrid, SeedByChannelBySpec) {
  const fs::path fixtures(BDISK_FIXTURES_DIR);
  const std::vector<std::string> specs = {"smallmix.spec", "gslots.spec"};
  const std::vector<std::uint64_t> seeds = {1, 42, 20260807};
  const std::vector<std::string> channels = {
      "lossless",
      "bernoulli:p=0.05,seed=11",
      "gilbert:pgb=0.02,pbg=0.25,seed=7",
      "outage:period=97,start=13,len=9+corrupt:p=0.01,seed=5",
  };

  for (const std::string& spec_name : specs) {
    const broadcast::BroadcastProgram program =
        BuildProgram(ReadFileOrDie(fixtures / spec_name));
    ASSERT_FALSE(::testing::Test::HasFailure()) << spec_name;
    // The committed fixtures' horizons, known to clear each spec's
    // deadline tail.
    const std::uint64_t horizon =
        spec_name == "gslots.spec" ? 40000 : 20000;
    for (const std::string& channel_spec : channels) {
      auto channel = faults::ParseChannelSpec(channel_spec);
      ASSERT_TRUE(channel.ok()) << channel.status();
      const Simulator simulator(program, **channel, horizon);
      for (const std::uint64_t seed : seeds) {
        WorkloadConfig config;
        config.requests_per_file = 60;
        config.seed = seed;
        const std::string label =
            spec_name + " / " + channel_spec + " / seed=" +
            std::to_string(seed);
        AssertEnginesAgree(simulator, config, label);
      }
    }
  }
}

// Epoch hot-swap: both engines must agree across a mid-trace program swap,
// including retrievals that straddle the boundary. Same three files under
// two different layouts — the legal hot-swap pair of sim/epoch.h (geometry
// invariant, only the transmission schedule changes).
TEST(EngineEquivalenceGrid, EpochScheduleHotSwap) {
  auto before = broadcast::BuildFlatProgram(
      {{"a", 2, 4, {}}, {"b", 3, 5, {}}, {"c", 4, 6, {}}},
      broadcast::FlatLayout::kContiguous);
  ASSERT_TRUE(before.ok()) << before.status();
  auto after = broadcast::BuildFlatProgram(
      {{"a", 2, 4, {}}, {"b", 3, 5, {}}, {"c", 4, 6, {}}},
      broadcast::FlatLayout::kSpread);
  ASSERT_TRUE(after.ok()) << after.status();

  std::vector<ProgramEpoch> epochs;
  epochs.push_back(ProgramEpoch{0, *before});
  epochs.push_back(ProgramEpoch{4 * before->period(), *after});
  auto schedule = EpochSchedule::Create(std::move(epochs));
  ASSERT_TRUE(schedule.ok()) << schedule.status();

  auto channel = faults::ParseChannelSpec("gilbert:pgb=0.03,pbg=0.3,seed=13");
  ASSERT_TRUE(channel.ok()) << channel.status();

  const Simulator simulator(*schedule, **channel, 6000);
  WorkloadConfig config;
  config.requests_per_file = 80;
  config.seed = 99;
  AssertEnginesAgree(simulator, config, "epoch-hot-swap");
}

// Request list over the engine's files: `random_count` seeded random
// starts (some late enough to run out of horizon) and deadlines (some too
// tight to meet), plus, per file, starts just past its last transmission
// before the horizon, with and without a deadline.
std::vector<ClientRequest> RequestList(const EventEngine& engine,
                                       std::uint64_t period,
                                       std::uint64_t random_count) {
  const std::uint64_t horizon = engine.horizon();
  const std::size_t file_count = engine.files().size();
  const std::uint64_t deadlines[] = {0, 1, 3, period, 4 * period};
  Rng rng(20261017);
  std::vector<ClientRequest> requests;
  for (std::uint64_t k = 0; k < random_count; ++k) {
    ClientRequest request;
    request.file = static_cast<broadcast::FileIndex>(k % file_count);
    request.start_slot = rng.Uniform(horizon);
    request.deadline_slots = deadlines[rng.Uniform(5)];
    requests.push_back(request);
  }
  for (broadcast::FileIndex f = 0; f < file_count; ++f) {
    std::uint64_t after_last = horizon;
    for (std::uint64_t t = horizon; t-- > 0;) {
      if (const auto tx = engine.NextTransmissionOf(f, t)) {
        after_last = tx->slot + 1;
        break;
      }
    }
    if (after_last >= horizon) continue;
    for (const std::uint64_t deadline : {std::uint64_t{0}, period}) {
      requests.push_back(ClientRequest{f, after_last, deadline});
    }
  }
  return requests;
}

struct RunOutput {
  std::string metrics;
  std::string timeline;
  std::string trace;
};

RunOutput Render(const SimulationMetrics& metrics,
                 const obs::Timeline& timeline, const obs::TraceSink& trace) {
  return {MetricsToJson(metrics), obs::RenderSnapshotStream(timeline, nullptr),
          obs::RenderChromeTrace({{&trace, "requests"}})};
}

void ExpectSameOutput(const RunOutput& expected, const RunOutput& actual,
                      const std::string& label) {
  EXPECT_EQ(expected.metrics, actual.metrics) << label << ": metrics differ";
  EXPECT_EQ(expected.timeline, actual.timeline)
      << label << ": timeline stream differs";
  EXPECT_EQ(expected.trace, actual.trace) << label << ": trace differs";
}

// Tracing of the 300-request lists: every 5th request, and every anomaly
// down to a one-slot stall.
obs::TraceOptions DenseTracing() {
  obs::TraceOptions options;
  options.sample_every = 5;
  options.stall_threshold = 1;
  return options;
}

// Replays one request list through RunRequests and EventEngine::Run, each
// serial and at PoolWidth(), and asserts all four outputs are identical.
// Also checks that the list reaches the corners it is built for. The list
// holds `size` requests, or 300 random ones and the corners when `size` is
// 0.
void ExpectRequestListsAgree(
    const Simulator& simulator, const EventEngine& engine,
    std::uint64_t period, const std::string& label, std::uint64_t size = 0,
    const obs::TraceOptions& trace_options = DenseTracing()) {
  ASSERT_EQ(simulator.horizon(), engine.horizon());
  const std::uint64_t corners = RequestList(engine, period, 0).size();
  ASSERT_TRUE(size == 0 || size >= corners) << label;
  const std::vector<ClientRequest> requests =
      RequestList(engine, period, size == 0 ? 300 : size - corners);

  std::uint64_t clean_incomplete = 0, missed = 0, corrupted = 0, stalled = 0;
  for (const ClientRequest& request : requests) {
    auto outcome = simulator.Retrieve(request);
    ASSERT_TRUE(outcome.ok()) << label << ": " << outcome.status();
    if (!outcome->completed && outcome->errors_observed == 0) {
      ++clean_incomplete;
    }
    if (!outcome->met_deadline) ++missed;
    corrupted += outcome->corrupt_detected;
    if (outcome->stall_slots > 0) ++stalled;
  }
  EXPECT_GT(clean_incomplete, 0u) << label;
  EXPECT_GT(missed, 0u) << label;
  EXPECT_GT(corrupted, 0u) << label;
  EXPECT_GT(stalled, 0u) << label;

  const auto slot_run = [&](runtime::ThreadPool* pool) {
    obs::Timeline timeline(period, simulator.horizon());
    obs::TraceSink trace(trace_options);
    auto metrics = simulator.RunRequests(requests, pool, &timeline, &trace);
    EXPECT_TRUE(metrics.ok()) << label << ": " << metrics.status();
    EXPECT_FALSE(trace.spans().empty()) << label;
    return Render(metrics.ok() ? *metrics : SimulationMetrics{}, timeline,
                  trace);
  };
  const auto event_run = [&](runtime::ThreadPool* pool) {
    obs::Timeline timeline(period, engine.horizon());
    obs::TraceSink trace(trace_options);
    const SimulationMetrics metrics = engine.Run(
        requests.size(),
        [&requests](std::uint64_t g) {
          return EventClient{requests[g].file, requests[g].start_slot,
                             requests[g].deadline_slots};
        },
        pool, nullptr, &timeline, &trace);
    return Render(metrics, timeline, trace);
  };

  runtime::ThreadPool pool(PoolWidth());
  const RunOutput expected = slot_run(nullptr);
  ExpectSameOutput(expected, slot_run(&pool), label + " / slot, pooled");
  ExpectSameOutput(expected, event_run(nullptr), label + " / event, serial");
  ExpectSameOutput(expected, event_run(&pool), label + " / event, pooled");
}

std::vector<faults::FaultType> Realize(const faults::ChannelModel& channel,
                                       std::uint64_t horizon) {
  std::vector<faults::FaultType> faults(horizon);
  channel.FillFaults(0, horizon, faults.data());
  return faults;
}

constexpr char kLossyCorrupting[] =
    "gilbert:pgb=0.05,pbg=0.3,seed=21+corrupt:p=0.05,seed=22";

TEST(EngineEquivalenceRequests, ProgramRequestList) {
  const fs::path fixtures(BDISK_FIXTURES_DIR);
  const broadcast::BroadcastProgram program =
      BuildProgram(ReadFileOrDie(fixtures / "smallmix.spec"));
  ASSERT_FALSE(::testing::Test::HasFailure());
  auto channel = faults::ParseChannelSpec(kLossyCorrupting);
  ASSERT_TRUE(channel.ok()) << channel.status();

  const std::uint64_t horizon = 2000;
  const Simulator simulator(program, **channel, horizon);
  const std::vector<faults::FaultType> faults = Realize(**channel, horizon);
  const EventEngine engine(program, faults);
  ExpectRequestListsAgree(simulator, engine, program.period(), "smallmix");
}

TEST(EngineEquivalenceRequests, EpochScheduleRequestList) {
  auto before = broadcast::BuildFlatProgram(
      {{"a", 2, 4, {}}, {"b", 3, 5, {}}, {"c", 4, 6, {}}},
      broadcast::FlatLayout::kContiguous);
  ASSERT_TRUE(before.ok()) << before.status();
  auto after = broadcast::BuildFlatProgram(
      {{"a", 2, 4, {}}, {"b", 3, 5, {}}, {"c", 4, 6, {}}},
      broadcast::FlatLayout::kSpread);
  ASSERT_TRUE(after.ok()) << after.status();
  const std::uint64_t period = before->period();
  std::vector<ProgramEpoch> epochs;
  epochs.push_back(ProgramEpoch{0, *before});
  epochs.push_back(ProgramEpoch{20 * period, *after});
  auto schedule = EpochSchedule::Create(std::move(epochs));
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  auto channel = faults::ParseChannelSpec(kLossyCorrupting);
  ASSERT_TRUE(channel.ok()) << channel.status();

  const std::uint64_t horizon = 40 * period;
  const Simulator simulator(*schedule, **channel, horizon);
  const std::vector<faults::FaultType> faults = Realize(**channel, horizon);
  const EventEngine engine(*schedule, faults);
  ExpectRequestListsAgree(simulator, engine, period, "two-epoch schedule");
}

// Bursty loss at a stationary rate of 0.15 / (0.15 + 0.35) = 0.3, plus a
// little corruption, across a hot-swap: retrievals that lose at most n - m
// transmissions in their lane are closed from its fault counts, the rest
// are walked, and both must render exactly what the slot walk renders.
TEST(EngineEquivalenceRequests, LossyEpochScheduleRequestList) {
  auto before = broadcast::BuildFlatProgram(
      {{"a", 2, 4, {}}, {"b", 3, 5, {}}, {"c", 4, 6, {}}},
      broadcast::FlatLayout::kContiguous);
  ASSERT_TRUE(before.ok()) << before.status();
  auto after = broadcast::BuildFlatProgram(
      {{"a", 2, 4, {}}, {"b", 3, 5, {}}, {"c", 4, 6, {}}},
      broadcast::FlatLayout::kSpread);
  ASSERT_TRUE(after.ok()) << after.status();
  const std::uint64_t period = before->period();
  std::vector<ProgramEpoch> epochs;
  epochs.push_back(ProgramEpoch{0, *before});
  epochs.push_back(ProgramEpoch{20 * period, *after});
  auto schedule = EpochSchedule::Create(std::move(epochs));
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  auto channel = faults::ParseChannelSpec(
      "gilbert:pgb=0.15,pbg=0.35,seed=31+corrupt:p=0.02,seed=32");
  ASSERT_TRUE(channel.ok()) << channel.status();

  const std::uint64_t horizon = 40 * period;
  const Simulator simulator(*schedule, **channel, horizon);
  const std::vector<faults::FaultType> faults = Realize(**channel, horizon);
  const EventEngine engine(*schedule, faults);
  ExpectRequestListsAgree(simulator, engine, period, "lossy two-epoch");

  // The list exercised both paths.
  const std::vector<ClientRequest> requests = RequestList(engine, period, 300);
  EventEngineStats stats;
  engine.Run(
      requests.size(),
      [&requests](std::uint64_t g) {
        return EventClient{requests[g].file, requests[g].start_slot,
                           requests[g].deadline_slots};
      },
      nullptr, &stats);
  EXPECT_GT(stats.clients_walked, 0u);
  EXPECT_LT(stats.clients_walked, requests.size() / 2);
}

// EventEngine::Run walks each shard in blocks of kBlockClients clients.
// Three full blocks and 17 more put a partial last block in the serial run
// and in every pooled shard, and the pooled shards' blocks start off the
// serial run's block boundaries. The schedule's wide file (n > 64) keeps
// its distinct sets in the spill arena. The trace samples alone, so it
// stays small: 257 does not divide the block size, so a block folded
// under the wrong global index traces other requests.
TEST(EngineEquivalenceRequests, RequestListAcrossClientBlocks) {
  const std::vector<broadcast::FlatFileSpec> files = {
      {"a", 2, 4, {}}, {"b", 3, 5, {}}, {"wide", 66, 72, {}}};
  auto before =
      broadcast::BuildFlatProgram(files, broadcast::FlatLayout::kContiguous);
  ASSERT_TRUE(before.ok()) << before.status();
  auto after =
      broadcast::BuildFlatProgram(files, broadcast::FlatLayout::kSpread);
  ASSERT_TRUE(after.ok()) << after.status();
  const std::uint64_t period = before->period();
  std::vector<ProgramEpoch> epochs;
  epochs.push_back(ProgramEpoch{0, *before});
  epochs.push_back(ProgramEpoch{20 * period, *after});
  auto schedule = EpochSchedule::Create(std::move(epochs));
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  auto channel = faults::ParseChannelSpec(kLossyCorrupting);
  ASSERT_TRUE(channel.ok()) << channel.status();

  const std::uint64_t horizon = 40 * period;
  const Simulator simulator(*schedule, **channel, horizon);
  const std::vector<faults::FaultType> faults = Realize(**channel, horizon);
  const EventEngine engine(*schedule, faults);
  obs::TraceOptions sampled;
  sampled.sample_every = 257;
  sampled.trace_anomalies = false;
  ExpectRequestListsAgree(simulator, engine, period, "client blocks",
                          3 * EventEngine::kBlockClients + 17, sampled);
}

}  // namespace
}  // namespace bdisk::sim
