// Unit tests for the discrete-event engine internals (sim/event_engine.h):
// the lane seek and the cursor's steps vs the slot-walk ground truth,
// per-client state transitions against Simulator::Retrieve — through the
// closed form and through the walk, at every completion offset, at lane
// edges, under single faults and under seeded channels — and the
// allocation-free steady-state guarantee (checked by counting global
// operator new calls across Drain()).

#include "sim/event_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bdisk/flat_builder.h"
#include "faults/channel_model.h"
#include "faults/channel_spec.h"
#include "sim/epoch.h"
#include "sim/simulation.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Overriding the global operator new in a test
// binary is well-defined; the counter is only armed around Drain() calls.

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
std::atomic<bool> g_count_allocations{false};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bdisk::sim {
namespace {

using broadcast::BroadcastProgram;
using broadcast::FlatLayout;

// A channel that replays an explicit trace — lets a test pin exact fault
// slots and hand the *same* realization to Simulator and EventEngine.
class VectorChannel final : public faults::ChannelModel {
 public:
  explicit VectorChannel(std::vector<faults::FaultType> trace)
      : trace_(std::move(trace)) {}
  faults::FaultType FaultAt(std::uint64_t slot) const override {
    return slot < trace_.size() ? trace_[slot] : faults::FaultType::kNone;
  }
  std::string Describe() const override { return "vector"; }

  const std::vector<faults::FaultType>& trace() const { return trace_; }

 private:
  std::vector<faults::FaultType> trace_;
};

BroadcastProgram SmallProgram() {
  auto p = broadcast::BuildFlatProgram(
      {{"a", 2, 4, {}}, {"b", 3, 5, {}}, {"c", 4, 6, {}}},
      FlatLayout::kSpread);
  EXPECT_TRUE(p.ok()) << p.status();
  return *p;
}

BroadcastProgram WideProgram() {
  // n = 96 > 64 keeps a walk's distinct sets in the runner's scratch.
  auto p = broadcast::BuildFlatProgram({{"wide", 80, 96, {}}},
                                       FlatLayout::kContiguous);
  EXPECT_TRUE(p.ok()) << p.status();
  return *p;
}

// ---------------------------------------------------------------------------
// Lane seek and cursor steps vs brute-force slot walk.

// Every transmission of `file` before `horizon`, as (slot, block) in slot
// order: the ground truth for both the seek and the cursor. `schedule` is
// a BroadcastProgram or an EpochSchedule.
template <typename Schedule>
std::vector<std::pair<std::uint64_t, std::uint32_t>> SlotWalk(
    const Schedule& schedule, broadcast::FileIndex file,
    std::uint64_t horizon) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> walk;
  for (std::uint64_t t = 0; t < horizon; ++t) {
    const auto tx = schedule.TransmissionAt(t);
    if (tx.has_value() && tx->file == file) {
      walk.emplace_back(t, tx->block_index);
    }
  }
  return walk;
}

// Seeks `file` from every slot in [0, horizon] and checks the cursor
// against the slot walk, then steps it with Advance to the horizon,
// checking every transmission it lands on and that the chain ends there.
template <typename Schedule>
void ExpectSeekAndStepsMatchSlotWalk(const EventEngine& engine,
                                     const Schedule& schedule,
                                     std::uint64_t horizon) {
  for (broadcast::FileIndex f = 0; f < engine.files().size(); ++f) {
    const auto walk = SlotWalk(schedule, f, horizon);
    ASSERT_FALSE(walk.empty()) << "file " << f;
    for (std::uint64_t from = 0; from <= horizon; ++from) {
      std::size_t i = 0;
      while (i < walk.size() && walk[i].first < from) ++i;
      auto got = engine.NextTransmissionOf(f, from);
      ASSERT_EQ(got.has_value(), i < walk.size())
          << "file " << f << " from " << from;
      if (!got.has_value()) continue;
      for (;; ++i) {
        ASSERT_EQ(got->slot, walk[i].first)
            << "file " << f << " from " << from << " step " << i;
        ASSERT_EQ(got->block, walk[i].second)
            << "file " << f << " from " << from << " slot " << got->slot;
        if (!engine.Advance(&*got)) break;
        ASSERT_LT(i + 1, walk.size())
            << "file " << f << " from " << from << ": stepped past slot "
            << walk.back().first << " to " << got->slot;
      }
      EXPECT_EQ(i + 1, walk.size())
          << "file " << f << " from " << from << ": chain ended early";
    }
  }
}

TEST(EventEngineTest, NextTransmissionMatchesSlotWalk) {
  // Files send 2, 3 and 4 slots per period with n = 4, 5 and 6, so the
  // rotation wraps mid-period; the horizon ends mid-period.
  const BroadcastProgram program = SmallProgram();
  const std::uint64_t horizon = 10 * program.period() + 7;
  const std::vector<faults::FaultType> trace(horizon,
                                             faults::FaultType::kNone);
  const EventEngine engine(program, trace);
  ExpectSeekAndStepsMatchSlotWalk(engine, program, horizon);
}

TEST(EventEngineTest, NextTransmissionCrossesEpochBoundary) {
  auto a = broadcast::BuildFlatProgram(
      {{"a", 2, 4, {}}, {"b", 3, 5, {}}, {"c", 4, 6, {}}},
      FlatLayout::kContiguous);
  ASSERT_TRUE(a.ok()) << a.status();
  auto b = broadcast::BuildFlatProgram(
      {{"a", 2, 4, {}}, {"b", 3, 5, {}}, {"c", 4, 6, {}}},
      FlatLayout::kSpread);
  ASSERT_TRUE(b.ok()) << b.status();
  std::vector<ProgramEpoch> epochs;
  epochs.push_back(ProgramEpoch{0, *a});
  epochs.push_back(ProgramEpoch{3 * a->period(), *b});
  auto schedule = EpochSchedule::Create(std::move(epochs));
  ASSERT_TRUE(schedule.ok()) << schedule.status();

  const std::uint64_t horizon = 8 * a->period();
  const std::vector<faults::FaultType> trace(horizon,
                                             faults::FaultType::kNone);
  const EventEngine engine(*schedule, trace);
  ExpectSeekAndStepsMatchSlotWalk(engine, *schedule, horizon);
}

// ---------------------------------------------------------------------------
// Per-client state transitions vs Simulator::Retrieve ground truth.

// Runs `client` alone through an EventShardRunner.
EventShardRunner DrainOne(const EventEngine& engine,
                          const EventClient& client) {
  EventShardRunner runner(engine);
  runner.Prepare(0, 1, [&](std::uint64_t) { return client; });
  runner.Drain();
  return runner;
}

// Runs one client through an EventShardRunner and checks its final state
// against the slot engine's RetrievalOutcome on the same realization, and
// its event count against the transmissions of its file from its start
// through its completion (or to the horizon).
void ExpectStateMatchesRetrieve(const Simulator& simulator,
                                const EventEngine& engine,
                                const EventClient& client,
                                const std::string& label) {
  const EventShardRunner runner = DrainOne(engine, client);
  ASSERT_EQ(runner.client_count(), 1u) << label;
  const ClientState& st = runner.state(0);

  ClientRequest request;
  request.file = client.file;
  request.start_slot = client.start_slot;
  request.deadline_slots = client.deadline_slots;
  auto outcome = simulator.Retrieve(request);
  ASSERT_TRUE(outcome.ok()) << label << ": " << outcome.status();

  EXPECT_EQ((st.flags & ClientState::kCompleted) != 0, outcome->completed)
      << label;
  EXPECT_EQ(st.errors_observed, outcome->errors_observed) << label;
  EXPECT_EQ(st.corrupt_detected, outcome->corrupt_detected) << label;
  if (outcome->completed) {
    EXPECT_EQ(st.completion_slot, outcome->completion_slot) << label;
    EXPECT_EQ(st.completion_slot - st.start_slot + 1, outcome->latency)
        << label;
    const std::uint64_t stall =
        st.errors_observed > 0 ? st.completion_slot - st.baseline_slot : 0;
    EXPECT_EQ(stall, outcome->stall_slots) << label;
  }
  const std::uint64_t last =
      outcome->completed ? st.completion_slot : engine.horizon() - 1;
  std::uint64_t heard = 0;
  auto tx = engine.NextTransmissionOf(client.file, client.start_slot);
  for (bool more = tx.has_value(); more && tx->slot <= last;
       more = engine.Advance(&*tx)) {
    ++heard;
  }
  EXPECT_EQ(runner.events_processed(), heard) << label;
}

TEST(EventEngineTest, TuneInMidPeriodMatchesRetrieve) {
  const BroadcastProgram program = SmallProgram();
  const std::uint64_t horizon = 20 * program.period();
  VectorChannel channel(
      std::vector<faults::FaultType>(horizon, faults::FaultType::kNone));
  const Simulator simulator(program, channel, horizon);
  const EventEngine engine(program, channel.trace());

  // Every start offset inside one period, every file: tune-in alignment
  // cannot matter.
  for (broadcast::FileIndex f = 0; f < program.files().size(); ++f) {
    for (std::uint64_t offset = 0; offset < program.period(); ++offset) {
      EventClient client;
      client.file = f;
      client.start_slot = 3 * program.period() + offset;
      ExpectStateMatchesRetrieve(simulator, engine, client, "mid-period");
    }
  }
}

TEST(EventEngineTest, FaultStallMatchesRetrieve) {
  const BroadcastProgram program = SmallProgram();
  const std::uint64_t horizon = 30 * program.period();
  // Lose an early window and corrupt a later stripe: clients tuning in
  // near slot 0 observe errors, stall, and detected corruption.
  std::vector<faults::FaultType> trace(horizon, faults::FaultType::kNone);
  for (std::uint64_t t = 2; t < 2 + 2 * program.period(); ++t) {
    trace[t] = faults::FaultType::kLost;
  }
  for (std::uint64_t t = 4 * program.period(); t < 5 * program.period();
       t += 2) {
    trace[t] = faults::FaultType::kCorrupted;
  }
  VectorChannel channel(trace);
  const Simulator simulator(program, channel, horizon);
  const EventEngine engine(program, channel.trace());

  bool saw_errors = false;
  for (broadcast::FileIndex f = 0; f < program.files().size(); ++f) {
    for (std::uint64_t start = 0; start < 6 * program.period(); ++start) {
      EventClient client;
      client.file = f;
      client.start_slot = start;
      ExpectStateMatchesRetrieve(simulator, engine, client, "faulted");
      if (DrainOne(engine, client).state(0).errors_observed > 0) {
        saw_errors = true;
      }
    }
  }
  EXPECT_TRUE(saw_errors) << "fault window never hit — test is vacuous";
}

TEST(EventEngineTest, EpochSpanningReconstructionMatchesRetrieve) {
  auto a = broadcast::BuildFlatProgram(
      {{"a", 2, 4, {}}, {"b", 3, 5, {}}, {"c", 4, 6, {}}},
      FlatLayout::kContiguous);
  ASSERT_TRUE(a.ok()) << a.status();
  auto b = broadcast::BuildFlatProgram(
      {{"a", 2, 4, {}}, {"b", 3, 5, {}}, {"c", 4, 6, {}}},
      FlatLayout::kSpread);
  ASSERT_TRUE(b.ok()) << b.status();
  const std::uint64_t swap = 2 * a->period();
  std::vector<ProgramEpoch> epochs;
  epochs.push_back(ProgramEpoch{0, *a});
  epochs.push_back(ProgramEpoch{swap, *b});
  auto schedule = EpochSchedule::Create(std::move(epochs));
  ASSERT_TRUE(schedule.ok()) << schedule.status();

  const std::uint64_t horizon = 10 * a->period();
  // Heavy loss before the swap forces retrievals started in epoch 0 to
  // finish — reconstructing across the boundary — in epoch 1.
  std::vector<faults::FaultType> trace(horizon, faults::FaultType::kNone);
  for (std::uint64_t t = 0; t < swap; ++t) {
    if (t % 3 != 0) trace[t] = faults::FaultType::kLost;
  }
  VectorChannel channel(trace);
  const Simulator simulator(*schedule, channel, horizon);
  const EventEngine engine(*schedule, channel.trace());

  bool saw_epoch_spanner = false;
  for (broadcast::FileIndex f = 0; f < schedule->file_count(); ++f) {
    for (std::uint64_t start = 0; start < swap; ++start) {
      EventClient client;
      client.file = f;
      client.start_slot = start;
      ExpectStateMatchesRetrieve(simulator, engine, client, "epoch-span");
      const EventShardRunner runner = DrainOne(engine, client);
      const ClientState& st = runner.state(0);
      if ((st.flags & ClientState::kCompleted) != 0 &&
          st.completion_slot >= swap) {
        saw_epoch_spanner = true;
      }
    }
  }
  EXPECT_TRUE(saw_epoch_spanner)
      << "no retrieval crossed the swap — test is vacuous";
}

TEST(EventEngineTest, WideFileSpillBitmapMatchesRetrieve) {
  const BroadcastProgram p = WideProgram();
  const std::uint64_t horizon = 12 * p.period();
  std::vector<faults::FaultType> trace(horizon, faults::FaultType::kNone);
  // Scatter losses so the distinct-set bookkeeping really works for it.
  for (std::uint64_t t = 0; t < horizon; t += 5) {
    trace[t] = faults::FaultType::kLost;
  }
  VectorChannel channel(trace);
  const Simulator simulator(p, channel, horizon);
  const EventEngine engine(p, channel.trace());

  for (std::uint64_t start = 0; start < 2 * p.period(); ++start) {
    EventClient client;
    client.file = 0;
    client.start_slot = start;
    ExpectStateMatchesRetrieve(simulator, engine, client, "wide-file");
  }
}

// A client's walk shares one distinct set with its lossless baseline
// until its first fault, then forks the baseline off. One fault, swept over
// every slot of a window and met from every start in it, lands before the
// client's first block, between blocks, on its would-be m-th block, and
// after completion.
void ExpectSingleFaultSweepMatchesRetrieve(const BroadcastProgram& program,
                                           std::uint64_t window) {
  const std::uint64_t horizon = window + 20 * program.period();
  std::uint64_t stalled = 0;
  for (const faults::FaultType fault :
       {faults::FaultType::kLost, faults::FaultType::kCorrupted}) {
    for (std::uint64_t at = 0; at < window; ++at) {
      std::vector<faults::FaultType> trace(horizon, faults::FaultType::kNone);
      trace[at] = fault;
      VectorChannel channel(trace);
      const Simulator simulator(program, channel, horizon);
      const EventEngine engine(program, channel.trace());
      for (broadcast::FileIndex f = 0; f < program.files().size(); ++f) {
        for (std::uint64_t start = 0; start < window; ++start) {
          EventClient client;
          client.file = f;
          client.start_slot = start;
          ExpectStateMatchesRetrieve(simulator, engine, client,
                                     "single fault");
          const EventShardRunner runner = DrainOne(engine, client);
          const ClientState& st = runner.state(0);
          if (st.errors_observed > 0 && st.completion_slot > st.baseline_slot) {
            ++stalled;
          }
        }
      }
    }
  }
  EXPECT_GT(stalled, 0u) << "no fault ever stalled a client — vacuous";
}

TEST(EventEngineTest, SingleFaultForksBaselineMatchesRetrieve) {
  // Inline sets (n <= 64).
  const BroadcastProgram program = SmallProgram();
  ExpectSingleFaultSweepMatchesRetrieve(program, 3 * program.period());
}

TEST(EventEngineTest, SingleFaultForksSpillBaselineMatchesRetrieve) {
  // Scratch sets: n = 96 > 64, as in WideFileSpillBitmapMatchesRetrieve.
  const BroadcastProgram p = WideProgram();
  ExpectSingleFaultSweepMatchesRetrieve(p, 2 * p.period());
}

TEST(EventEngineTest, NoTransmissionBeforeHorizonIsIncomplete) {
  const BroadcastProgram program = SmallProgram();
  // Horizon so short that a late tune-in hears nothing.
  const std::uint64_t horizon = program.period();
  const std::vector<faults::FaultType> trace(horizon,
                                             faults::FaultType::kNone);
  const EventEngine engine(program, trace);

  EventClient client;
  client.file = 0;
  client.start_slot = horizon - 1;
  const EventShardRunner runner = DrainOne(engine, client);
  const ClientState& st = runner.state(0);
  // Whether the last slot carries file 0 decides completion progress, but
  // a client can never complete m=2 blocks in one slot.
  EXPECT_EQ(st.flags & ClientState::kCompleted, 0);
  EXPECT_NE(st.flags & ClientState::kDone, 0);
}

// ---------------------------------------------------------------------------
// The closed form and the walk: which one finishes a client, and where.

// Faults the first j = 0 … r + 1 transmissions of `file` from `start`,
// alternating lost and corrupted, so its m-th clean transmission lands at
// offset m - 1 + j: every offset from m - 1 to n - 1 is closed from the
// lane (r = n - m), and at j = r + 1 the walk completes at offset n, where
// the block lost first comes round again.
void ExpectEveryCompletionOffsetMatchesRetrieve(
    const BroadcastProgram& program, broadcast::FileIndex file,
    std::uint64_t start, std::uint64_t horizon) {
  const broadcast::ProgramFile& pf = program.files()[file];
  const std::uint32_t r = pf.n - pf.m;
  // The file's first n + 1 transmissions from the start.
  std::vector<std::uint64_t> slots;
  for (const auto& [slot, block] : SlotWalk(program, file, horizon)) {
    if (slot >= start && slots.size() <= pf.n) slots.push_back(slot);
  }
  ASSERT_EQ(slots.size(), pf.n + 1u) << "horizon too short";
  for (std::uint32_t j = 0; j <= r + 1; ++j) {
    std::vector<faults::FaultType> trace(horizon, faults::FaultType::kNone);
    for (std::uint32_t i = 0; i < j; ++i) {
      trace[slots[i]] = i % 2 == 0 ? faults::FaultType::kLost
                                   : faults::FaultType::kCorrupted;
    }
    VectorChannel channel(trace);
    const Simulator simulator(program, channel, horizon);
    const EventEngine engine(program, channel.trace());
    const EventClient client{file, start, 0};
    const std::string label = "file " + std::to_string(file) + " start " +
                              std::to_string(start) + " faults " +
                              std::to_string(j);
    ExpectStateMatchesRetrieve(simulator, engine, client, label);
    const EventShardRunner runner = DrainOne(engine, client);
    const ClientState& st = runner.state(0);
    EXPECT_NE(st.flags & ClientState::kCompleted, 0) << label;
    EXPECT_EQ(st.completion_slot, slots[pf.m - 1 + j]) << label;
    EXPECT_EQ(st.errors_observed, j) << label;
    EXPECT_EQ(st.corrupt_detected, j / 2) << label;
    EXPECT_EQ(runner.events_processed(), pf.m + j) << label;
    EXPECT_EQ(runner.clients_walked(), j > r ? 1u : 0u) << label;
  }
}

TEST(EventEngineTest, EveryCompletionOffsetMatchesRetrieve) {
  const BroadcastProgram program = SmallProgram();
  const std::uint64_t horizon = 20 * program.period();
  for (broadcast::FileIndex f = 0; f < program.files().size(); ++f) {
    for (std::uint64_t start = program.period();
         start < 2 * program.period(); ++start) {
      ExpectEveryCompletionOffsetMatchesRetrieve(program, f, start, horizon);
    }
  }
}

TEST(EventEngineTest, EveryCompletionOffsetOfWideFileMatchesRetrieve) {
  const BroadcastProgram program = WideProgram();
  const std::uint64_t horizon = 6 * program.period();
  for (const std::uint64_t start :
       {std::uint64_t{0}, std::uint64_t{1}, program.period() / 2 + 1,
        2 * program.period() - 1}) {
    ExpectEveryCompletionOffsetMatchesRetrieve(program, 0, start, horizon);
  }
}

// A two-epoch schedule on a lossless channel, at the ends of each file's
// lanes: a retrieval that completes on its epoch's last transmission is
// closed; one that needs the next epoch, and one the horizon cuts, are
// walked; a start past its epoch's last transmission is closed in the
// next epoch's lane.
TEST(EventEngineTest, LaneEdgesMatchRetrieve) {
  auto a = broadcast::BuildFlatProgram(
      {{"a", 2, 4, {}}, {"b", 3, 5, {}}, {"c", 4, 6, {}}},
      FlatLayout::kContiguous);
  ASSERT_TRUE(a.ok()) << a.status();
  auto b = broadcast::BuildFlatProgram(
      {{"a", 2, 4, {}}, {"b", 3, 5, {}}, {"c", 4, 6, {}}},
      FlatLayout::kSpread);
  ASSERT_TRUE(b.ok()) << b.status();
  const std::uint64_t swap = 3 * a->period();
  std::vector<ProgramEpoch> epochs;
  epochs.push_back(ProgramEpoch{0, *a});
  epochs.push_back(ProgramEpoch{swap, *b});
  auto schedule = EpochSchedule::Create(std::move(epochs));
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  const std::uint64_t horizon = swap + 4 * b->period() + 3;
  VectorChannel channel(
      std::vector<faults::FaultType>(horizon, faults::FaultType::kNone));
  const Simulator simulator(*schedule, channel, horizon);
  const EventEngine engine(*schedule, channel.trace());

  std::uint64_t next_lane_starts = 0;
  for (broadcast::FileIndex f = 0; f < schedule->file_count(); ++f) {
    const std::uint32_t m = schedule->files()[f].m;
    std::vector<std::uint64_t> before, after;
    for (const auto& [slot, block] : SlotWalk(*schedule, f, horizon)) {
      (slot < swap ? before : after).push_back(slot);
    }
    ASSERT_GE(before.size(), m + 1u);
    ASSERT_GE(after.size(), m);
    const auto check = [&](std::uint64_t start, bool completed,
                           std::uint64_t walked, const std::string& what) {
      const EventClient client{f, start, 0};
      const std::string label = "file " + std::to_string(f) + ": " + what;
      ExpectStateMatchesRetrieve(simulator, engine, client, label);
      const EventShardRunner runner = DrainOne(engine, client);
      EXPECT_EQ((runner.state(0).flags & ClientState::kCompleted) != 0,
                completed)
          << label;
      EXPECT_EQ(runner.clients_walked(), walked) << label;
      return runner.state(0).completion_slot;
    };
    EXPECT_EQ(check(before[before.size() - m], true, 0, "epoch's last"),
              before.back());
    EXPECT_GE(check(before[before.size() - m + 1], true, 1, "next epoch"),
              swap);
    check(after[after.size() - m + 1], false, 1, "cut by the horizon");
    if (before.back() + 1 < swap) {
      ++next_lane_starts;
      EXPECT_EQ(check(before.back() + 1, true, 0, "no transmission left"),
                after[m - 1]);
    }
  }
  EXPECT_GT(next_lane_starts, 0u) << "every file ends its epoch — vacuous";
}

// What a seeded sweep drained: its clients, the walked ones, the completed
// ones, and the closed ones that heard a corrupted transmission.
struct SweepCounts {
  std::uint64_t clients = 0;
  std::uint64_t walked = 0;
  std::uint64_t completed = 0;
  std::uint64_t closed_corrupt = 0;
};

// Every file of `program` from every start in [0, starts) under the seeded
// channel `spec` over `horizon` slots: each client checked against
// Retrieve one by one, then all drained as one block.
SweepCounts ExpectSeededSweepMatchesRetrieve(const BroadcastProgram& program,
                                             const char* spec,
                                             std::uint64_t horizon,
                                             std::uint64_t starts) {
  SweepCounts counts;
  auto channel = faults::ParseChannelSpec(spec);
  EXPECT_TRUE(channel.ok()) << channel.status();
  if (!channel.ok()) return counts;
  const Simulator simulator(program, **channel, horizon);
  std::vector<faults::FaultType> trace(horizon);
  (*channel)->FillFaults(0, horizon, trace.data());
  const EventEngine engine(program, trace);
  counts.clients = program.files().size() * starts;
  const auto client_at = [&](std::uint64_t g) {
    return EventClient{static_cast<broadcast::FileIndex>(g / starts),
                       g % starts, 0};
  };
  for (std::uint64_t g = 0; g < counts.clients; ++g) {
    ExpectStateMatchesRetrieve(simulator, engine, client_at(g), spec);
    const EventShardRunner one = DrainOne(engine, client_at(g));
    if (one.clients_walked() == 0 && one.state(0).corrupt_detected > 0) {
      ++counts.closed_corrupt;
    }
  }
  EventShardRunner runner(engine);
  runner.Prepare(0, counts.clients, client_at);
  runner.Drain();
  counts.walked = runner.clients_walked();
  for (std::uint64_t g = 0; g < counts.clients; ++g) {
    counts.completed += (runner.state(g).flags & ClientState::kCompleted) != 0;
  }
  return counts;
}

// Seeded channels from lossless to half the slots lost, and one bursty
// trace: every file, every start of two periods, which closes every client
// on the lossless channel and walks some on the lossiest. Then a file with
// n > 64 under losses and corruption from every start of the horizon:
// closed clients whose corrupt counts come from the lanes, and walked ones
// on the spill sets.
TEST(EventEngineTest, SeededChannelSweepMatchesRetrieve) {
  const BroadcastProgram program = SmallProgram();
  const std::uint64_t horizon = 30 * program.period();
  std::vector<SweepCounts> counts;
  for (const char* spec :
       {"bernoulli:p=0,seed=3", "bernoulli:p=0.01,seed=3",
        "bernoulli:p=0.2,seed=3", "bernoulli:p=0.5,seed=3",
        "gilbert:pgb=0.1,pbg=0.2,seed=3+corrupt:p=0.05,seed=4"}) {
    counts.push_back(ExpectSeededSweepMatchesRetrieve(
        program, spec, horizon, 2 * program.period()));
  }
  EXPECT_EQ(counts[0].walked, 0u);  // Lossless, one epoch: all closed.
  EXPECT_EQ(counts[0].completed, counts[0].clients);
  EXPECT_GT(counts[3].walked, 0u);  // p = 0.5: some lose more than n - m.

  const BroadcastProgram wide = WideProgram();
  const std::uint64_t wide_horizon = 12 * wide.period();
  const SweepCounts spill = ExpectSeededSweepMatchesRetrieve(
      wide, "bernoulli:p=0.08,seed=5+corrupt:p=0.06,seed=6", wide_horizon,
      wide_horizon);
  EXPECT_GT(spill.walked, 0u);
  EXPECT_LT(spill.walked, spill.clients);
  EXPECT_GT(spill.closed_corrupt, 0u);
}

// ---------------------------------------------------------------------------
// Steady-state event processing allocates nothing.

TEST(EventEngineTest, DrainPerformsNoHeapAllocation) {
  const BroadcastProgram program = SmallProgram();
  const std::uint64_t horizon = 200 * program.period();
  std::vector<faults::FaultType> trace(horizon, faults::FaultType::kNone);
  for (std::uint64_t t = 0; t < horizon; t += 7) {
    trace[t] = faults::FaultType::kLost;  // Re-arm under faults too.
  }
  const EventEngine engine(program, trace);

  EventShardRunner runner(engine);
  const auto client_at = [&](std::uint64_t g) {
    EventClient client;
    client.file = static_cast<broadcast::FileIndex>(g % 3);
    client.start_slot = (g * 37) % (horizon / 2);
    return client;
  };
  runner.Prepare(0, 4000, client_at);  // Prepare may allocate freely.

  g_allocation_count.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  runner.Drain();
  g_count_allocations.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), 0u)
      << "Drain() must not allocate: the event heap and client state are "
         "preallocated in Prepare()";
  EXPECT_GT(runner.events_processed(), 4000u);

  // The run must still be *correct*: everything completed on this trace.
  SimulationMetrics local;
  local.per_file.resize(program.files().size());
  runner.Collect(&local);
  std::uint64_t completed = 0;
  for (const FileMetrics& fm : local.per_file) completed += fm.completed;
  EXPECT_EQ(completed, 4000u);
}

// Spill clients (n > 64) must also drain allocation-free.
TEST(EventEngineTest, DrainWithSpillBitmapsPerformsNoHeapAllocation) {
  auto p = broadcast::BuildFlatProgram({{"wide", 80, 96, {}}},
                                       FlatLayout::kContiguous);
  ASSERT_TRUE(p.ok()) << p.status();
  const std::uint64_t horizon = 40 * p->period();
  const std::vector<faults::FaultType> trace(horizon,
                                             faults::FaultType::kNone);
  const EventEngine engine(*p, trace);

  EventShardRunner runner(engine);
  runner.Prepare(0, 500, [&](std::uint64_t g) {
    EventClient client;
    client.file = 0;
    client.start_slot = (g * 13) % (horizon / 2);
    return client;
  });

  g_allocation_count.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  runner.Drain();
  g_count_allocations.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), 0u);
}

// The two tests above now close nearly every client from its lane; heavy
// loss walks most clients, through inline (n <= 64) and scratch sets.
TEST(EventEngineTest, DrainWalkingClientsPerformsNoHeapAllocation) {
  for (const BroadcastProgram& program : {SmallProgram(), WideProgram()}) {
    const std::uint64_t horizon = 40 * program.period();
    std::vector<faults::FaultType> trace(horizon, faults::FaultType::kNone);
    for (std::uint64_t t = 0; t < horizon; ++t) {
      if (t % 3 != 0) trace[t] = faults::FaultType::kLost;
    }
    const EventEngine engine(program, trace);
    EventShardRunner runner(engine);
    runner.Prepare(0, 500, [&](std::uint64_t g) {
      EventClient client;
      client.file = static_cast<broadcast::FileIndex>(
          g % program.files().size());
      client.start_slot = (g * 13) % (horizon / 2);
      return client;
    });

    g_allocation_count.store(0, std::memory_order_relaxed);
    g_count_allocations.store(true, std::memory_order_relaxed);
    runner.Drain();
    g_count_allocations.store(false, std::memory_order_relaxed);
    EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), 0u);
    EXPECT_GT(runner.clients_walked(), 250u);
  }
}

}  // namespace
}  // namespace bdisk::sim
