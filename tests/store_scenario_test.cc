// Disk-backed scenario replay: every committed scenario fixture is built
// into a persistent BlockStore on a real file device, and the disk-backed
// broadcast server must transmit BYTE-IDENTICAL blocks to the in-memory
// server at every slot of the horizon, and a retrieval session on either
// must end identically. The store is then closed and reopened (the
// recovery path — the same code that runs after a crash) and every
// cataloged block must still read back bit-exact, with every file
// reconstructing to its original contents from m disk-read blocks.
// Finally the index-level metric replay is held to the committed golden,
// pinning the whole disk-backed pipeline to the same bytes as the
// in-memory one.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/random.h"
#include "faults/channel_spec.h"
#include "ida/dispersal.h"
#include "scenario_util.h"
#include "sim/client.h"
#include "sim/metrics.h"
#include "sim/server.h"
#include "sim/simulation.h"
#include "store/block_device.h"
#include "store/block_store.h"

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

constexpr std::size_t kPayloadBytes = 64;   // Coded-block payload size.
constexpr std::size_t kDeviceBlock = 256;   // Device sector size.

// Deterministic per-file contents, exactly m * kPayloadBytes bytes.
std::vector<std::vector<std::uint8_t>> SynthesizeContents(
    const broadcast::BroadcastProgram& program) {
  std::vector<std::vector<std::uint8_t>> contents(program.file_count());
  for (broadcast::FileIndex f = 0; f < program.file_count(); ++f) {
    Rng rng(0xD15C0000ull + f);
    contents[f].resize(program.files()[f].m * kPayloadBytes);
    for (auto& b : contents[f]) {
      b = static_cast<std::uint8_t>(rng.Uniform(256));
    }
  }
  return contents;
}

// Device sized from the program with headroom for catalog + slack.
std::uint64_t DeviceBlocksFor(const broadcast::BroadcastProgram& program) {
  std::uint64_t blocks = store::BlockStore::kFirstDataBlock;
  std::uint64_t catalog_bytes = 8;
  for (broadcast::FileIndex f = 0; f < program.file_count(); ++f) {
    const auto& pf = program.files()[f];
    blocks += pf.n * ((kPayloadBytes + kDeviceBlock - 1) / kDeviceBlock);
    catalog_bytes += 28 + pf.n * 12;
  }
  // Two catalog extents can coexist transiently across a commit.
  blocks += 2 * ((catalog_bytes + kDeviceBlock - 1) / kDeviceBlock) + 16;
  return blocks;
}

class StoreScenarioTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StoreScenarioTest, DiskBackedReplayIsByteIdentical) {
  const fs::path fixtures(BDISK_FIXTURES_DIR);
  const Scenario scenario =
      ParseScenario(fixtures / (GetParam() + ".scenario"));
  ASSERT_EQ(scenario.Problem(), "") << GetParam();
  ASSERT_FALSE(::testing::Test::HasFailure());

  const broadcast::BroadcastProgram program =
      BuildProgram(ReadFileOrDie(fixtures / scenario.spec_file));
  ASSERT_FALSE(::testing::Test::HasFailure());
  const auto contents = SynthesizeContents(program);

  // The reference: the established in-memory data plane.
  auto memory =
      BroadcastServer::Create(program, contents, kPayloadBytes);
  ASSERT_TRUE(memory.ok()) << memory.status();

  const std::string path =
      ::testing::TempDir() + "/bdisk_store_scenario_" + GetParam() + ".dev";
  std::remove(path.c_str());

  // Build the same program disk-backed.
  {
    auto device = store::FileBlockDevice::Create(path, kDeviceBlock,
                                                 DeviceBlocksFor(program));
    ASSERT_TRUE(device.ok()) << device.status();
    auto built = store::BlockStore::Format(std::move(*device));
    ASSERT_TRUE(built.ok()) << built.status();
    auto disk = BroadcastServer::CreateDiskBacked(
        EpochSchedule::Single(program), contents, kPayloadBytes,
        built->get());
    ASSERT_TRUE(disk.ok()) << disk.status();
    ASSERT_TRUE(disk->disk_backed());

    // Slot-for-slot byte identity over the whole horizon, idle slots
    // included.
    for (std::uint64_t t = 0; t < scenario.horizon; ++t) {
      const auto from_disk = disk->FetchTransmission(t);
      ASSERT_TRUE(from_disk.ok()) << "slot " << t << ": "
                                  << from_disk.status();
      const auto from_memory = memory->FetchTransmission(t);
      ASSERT_TRUE(from_memory.ok()) << from_memory.status();
      ASSERT_EQ(from_disk->has_value(), from_memory->has_value())
          << "slot " << t;
      if (from_memory->has_value()) {
        ASSERT_EQ(**from_disk, **from_memory)
            << "slot " << t << ": disk and memory transmissions differ";
      }
    }

    // A retrieval session reads either server the same way and ends the
    // same way: every file, from several starts, under bursty loss plus
    // corruption.
    auto lossy = faults::ParseChannelSpec(
        "gilbert:pgb=0.05,pbg=0.3,seed=4+corrupt:p=0.2,seed=6");
    ASSERT_TRUE(lossy.ok()) << lossy.status();
    std::uint64_t lost = 0;
    std::uint64_t corrupt = 0;
    for (broadcast::FileIndex f = 0; f < program.file_count(); ++f) {
      for (const std::uint64_t start :
           {std::uint64_t{0}, std::uint64_t{77}, scenario.horizon / 2}) {
        auto on_disk =
            RunRetrievalSession(*disk, **lossy, f, start, scenario.horizon);
        auto in_memory =
            RunRetrievalSession(*memory, **lossy, f, start, scenario.horizon);
        ASSERT_TRUE(on_disk.ok()) << on_disk.status();
        ASSERT_TRUE(in_memory.ok()) << in_memory.status();
        ASSERT_TRUE(in_memory->completed) << "file " << f << " from " << start;
        EXPECT_EQ(on_disk->completed, in_memory->completed);
        EXPECT_EQ(on_disk->completion_slot, in_memory->completion_slot);
        EXPECT_EQ(on_disk->latency, in_memory->latency);
        EXPECT_EQ(on_disk->epochs_spanned, in_memory->epochs_spanned);
        EXPECT_EQ(on_disk->lost_observed, in_memory->lost_observed);
        EXPECT_EQ(on_disk->corrupt_detected, in_memory->corrupt_detected);
        EXPECT_EQ(on_disk->stall_slots, in_memory->stall_slots);
        EXPECT_EQ(on_disk->data, contents[f]) << "file " << f;
        lost += in_memory->lost_observed;
        corrupt += in_memory->corrupt_detected;
      }
    }
    EXPECT_GT(lost, 0u) << "the channel dropped nothing";
    EXPECT_GT(corrupt, 0u) << "the channel damaged nothing";
  }  // Store and device close here.

  // Reopen through recovery and demand every block back, bit-exact, and
  // every file reconstructable to its original bytes from m blocks.
  {
    auto device = store::FileBlockDevice::Open(path, kDeviceBlock);
    ASSERT_TRUE(device.ok()) << device.status();
    auto reopened = store::BlockStore::Open(std::move(*device));
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    ASSERT_EQ((*reopened)->catalog().size(), program.file_count());
    for (broadcast::FileIndex f = 0; f < program.file_count(); ++f) {
      const auto& pf = program.files()[f];
      std::vector<ida::Block> first_m;
      for (std::uint32_t k = 0; k < pf.n; ++k) {
        auto block = (*reopened)->ReadCodedBlock(f, 0, k);
        ASSERT_TRUE(block.ok()) << block.status();
        ASSERT_EQ(ida::VerifyChecksum(*block), ida::ChecksumState::kValid);
        if (first_m.size() < pf.m) first_m.push_back(std::move(*block));
      }
      auto engine = ida::Dispersal::Create(pf.m, pf.n, kPayloadBytes);
      ASSERT_TRUE(engine.ok()) << engine.status();
      auto data = engine->Reconstruct(first_m);
      ASSERT_TRUE(data.ok()) << data.status();
      EXPECT_EQ(*data, contents[f]) << "file " << f;
    }
  }
  std::remove(path.c_str());

  // The index-level metric replay stays pinned to the committed golden:
  // the disk-backed pipeline changed nothing observable.
  auto channel = faults::ParseChannelSpec(scenario.channel);
  ASSERT_TRUE(channel.ok()) << channel.status();
  const Simulator simulator(program, **channel, scenario.horizon);
  WorkloadConfig config;
  config.requests_per_file = scenario.requests_per_file;
  config.seed = scenario.workload_seed;
  auto metrics = simulator.RunWorkload(config, nullptr);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  const fs::path golden_path = fixtures / (scenario.name + ".golden.json");
  ASSERT_TRUE(fs::exists(golden_path)) << golden_path;
  EXPECT_EQ(MetricsToJson(*metrics), ReadFileOrDie(golden_path))
      << scenario.name << ": replay diverged from the committed golden";
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, StoreScenarioTest,
    ::testing::ValuesIn(DiscoverScenarioNames(BDISK_FIXTURES_DIR)),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return scenario_util::ParamName(info.param);
    });

}  // namespace
}  // namespace bdisk::sim
