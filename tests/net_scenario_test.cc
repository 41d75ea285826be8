// The network-plane acceptance proof: a fixture scenario served over a
// *real UDP loopback socket* reproduces the committed in-process golden
// metrics. The test replays the smallmix_gilbert fixture's full workload —
// every (file, request) draw of the simulator, 450 sessions total — as
// wire sessions against a paced UdpBroadcastServer behind a FaultingSocket
// carrying the fixture's Gilbert-Elliott spec, then aggregates the wire
// results into the golden's per-file schema and compares.
//
// Tolerance contract (documented, not hand-waved):
//  * attempts / completed / incomplete / missed_deadline and the latency
//    count / sum / min / max are integers and must match the golden
//    EXACTLY — the channel trace is random-access-deterministic and the
//    fixture's Gilbert spec is pure erasure, so the wire walk is the same
//    walk the simulator did.
//  * latency mean is compared to 1e-9 (it is sum/count in doubles).
//  * errors_observed, stall and periods_to_recovery are NOT compared: a
//    wire client has no server-side ground truth (it cannot see blocks
//    that never arrived), so those fields are defined as 0 on the wire
//    path (udp_client.h documents this).
//
// Kernel receive-buffer overflow (scheduler jitter, not channel loss) is
// detected by comparing datagrams handed to the kernel against datagrams
// received, and the run retries; see net_test.cc for the same guard.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "faults/channel_model.h"
#include "faults/channel_spec.h"
#include "net/faulting_socket.h"
#include "net/udp_client.h"
#include "net/udp_server.h"
#include "net/udp_socket.h"
#include "obs/json.h"
#include "runtime/rng_stream.h"
#include "scenario_util.h"
#include "sim/server.h"

namespace bdisk::net {
namespace {

namespace fs = std::filesystem;
namespace scenario_util = sim::scenario_util;

constexpr char kScenario[] = "smallmix_gilbert";

double Num(const obs::JsonValue& obj, const char* key) {
  const obs::JsonValue* v = obj.Find(key);
  EXPECT_TRUE(v != nullptr && v->is_number()) << "missing number: " << key;
  return v != nullptr && v->is_number() ? v->number : 0.0;
}

struct WireRun {
  std::vector<WireSessionResult> results;
  UdpClientStats client_stats;
  UdpServerStats server_stats;
  std::uint64_t deliberate_drops = 0;
};

Result<std::optional<WireRun>> RunWireOnce(
    sim::BroadcastServer* server, const faults::ChannelModel* channel,
    const std::vector<WireSession>& sessions,
    const UdpServerOptions& server_options) {
  UdpClientOptions client_options;
  client_options.block_size = server->block_size();
  client_options.idle_timeout_ms = 30000;
  BDISK_ASSIGN_OR_RETURN(UdpClient client, UdpClient::Create(client_options));
  for (const WireSession& s : sessions) client.AddSession(s);

  BDISK_ASSIGN_OR_RETURN(UdpSocket sender, UdpSocket::Open());
  Endpoint dest;
  dest.port = client.bound_port();
  SocketSink socket_sink(&sender, dest);
  FaultingSocket faulting(channel, &socket_sink);

  Result<UdpServerStats> server_stats =
      Status::Internal("server thread never ran");
  std::thread server_thread([&] {
    server_stats = ServeBroadcast(server, &faulting, server_options);
  });
  auto results = client.Run();
  server_thread.join();
  BDISK_RETURN_NOT_OK(results.status());
  BDISK_RETURN_NOT_OK(server_stats.status());

  WireRun run;
  run.results = std::move(*results);
  run.client_stats = client.stats();
  run.server_stats = *server_stats;
  run.deliberate_drops = faulting.dropped();
  const std::uint64_t expected =
      socket_sink.sent() -
      static_cast<std::uint64_t>(server_options.end_repeats - 1);
  if (run.client_stats.datagrams < expected) {
    std::fprintf(stderr,
                 "kernel loss: %llu of %llu datagrams received; retrying\n",
                 static_cast<unsigned long long>(run.client_stats.datagrams),
                 static_cast<unsigned long long>(expected));
    return std::optional<WireRun>();
  }
  return std::optional<WireRun>(std::move(run));
}

TEST(NetScenarioTest, SmallmixGilbertOverLoopbackMatchesGolden) {
  const fs::path fixtures(BDISK_FIXTURES_DIR);
  const scenario_util::Scenario scenario =
      scenario_util::ParseScenario(fixtures / (std::string(kScenario) +
                                               ".scenario"));
  ASSERT_EQ(scenario.Problem(), "");

  const scenario_util::BuiltProgram built =
      scenario_util::BuildProgramWithBlockSize(
          scenario_util::ReadFileOrDie(fixtures / scenario.spec_file));
  ASSERT_FALSE(::testing::Test::HasFailure());
  ASSERT_GT(built.block_size, 0u) << "fixture must be byte-domain";
  const broadcast::BroadcastProgram& program = built.program;

  auto channel = faults::ParseChannelSpec(scenario.channel);
  ASSERT_TRUE(channel.ok()) << channel.status();

  // Deterministic contents, same convention as the planner's store
  // materialization (contents do not affect the metrics — only the
  // reconstruct-vs-not walk does — but determinism keeps reruns honest).
  std::vector<std::vector<std::uint8_t>> contents;
  for (std::size_t f = 0; f < program.files().size(); ++f) {
    Rng rng(0x5702Eull + f);
    std::vector<std::uint8_t> bytes(program.files()[f].m * built.block_size);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.Uniform(256));
    contents.push_back(std::move(bytes));
  }
  auto server =
      sim::BroadcastServer::Create(program, contents, built.block_size);
  ASSERT_TRUE(server.ok()) << server.status();

  // Replicate the simulator's workload draws exactly (Simulator::
  // ValidateWorkload + RunWorkload): per-file deadline is the first
  // latency-class bound; start slots leave a tail of
  // max(deadline, 4 periods); request g = f * requests_per_file + k draws
  // its start from RNG stream g of the workload seed.
  const std::size_t file_count = program.files().size();
  std::vector<std::uint64_t> deadlines(file_count, 0);
  std::vector<std::uint64_t> start_ranges(file_count, 0);
  for (std::size_t f = 0; f < file_count; ++f) {
    const broadcast::ProgramFile& pf = program.files()[f];
    if (!pf.latency_slots.empty()) deadlines[f] = pf.latency_slots.front();
    const std::uint64_t tail = std::max<std::uint64_t>(
        deadlines[f], 4 * program.DataCycleLength());
    ASSERT_GT(scenario.horizon, tail);
    start_ranges[f] = scenario.horizon - tail;
  }
  std::vector<WireSession> sessions;
  for (std::size_t f = 0; f < file_count; ++f) {
    for (std::uint64_t k = 0; k < scenario.requests_per_file; ++k) {
      const std::uint64_t g = f * scenario.requests_per_file + k;
      Rng rng = runtime::StreamRng(scenario.workload_seed, g);
      WireSession s;
      s.file = static_cast<broadcast::FileIndex>(f);
      s.m = program.files()[f].m;
      s.n = program.files()[f].n;
      s.start_slot = rng.Uniform(start_ranges[f]);
      sessions.push_back(s);
    }
  }

  UdpServerOptions options;
  options.horizon = scenario.horizon;
  // Pace the broadcast so the single-threaded client keeps up without
  // kernel drops; the retry guard below catches the residual jitter. At
  // 256 MiB/s 20 of 20 Release runs on a 4-vCPU Xeon saw no drop and took
  // ~2.4 s (48 MiB/s took 12.5 s).
  options.bandwidth_bytes_per_sec = 256 * 1024 * 1024;
  options.burst_bytes = 128 * 1024;

  std::optional<WireRun> run;
  for (int attempt = 0; attempt < 5 && !run.has_value(); ++attempt) {
    auto r = RunWireOnce(&*server, channel->get(), sessions, options);
    ASSERT_TRUE(r.ok()) << r.status();
    run = std::move(*r);
  }
  ASSERT_TRUE(run.has_value())
      << "loopback kept dropping datagrams in the kernel after 5 attempts";
  ASSERT_EQ(run->results.size(), sessions.size());
  EXPECT_GT(run->deliberate_drops, 0u)
      << "the Gilbert channel never fired; the scenario is vacuous";

  // Aggregate the wire sessions into the golden's per-file schema.
  struct FileAgg {
    std::uint64_t attempts = 0, completed = 0, incomplete = 0;
    std::uint64_t missed_deadline = 0;
    std::uint64_t latency_sum = 0, latency_min = ~0ull, latency_max = 0;
  };
  std::vector<FileAgg> agg(file_count);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const WireSession& spec = sessions[i];
    const sim::SessionResult& r = run->results[i].session;
    FileAgg& a = agg[spec.file];
    ++a.attempts;
    if (!r.completed) {
      ++a.incomplete;
      continue;
    }
    ++a.completed;
    a.latency_sum += r.latency;
    a.latency_min = std::min(a.latency_min, r.latency);
    a.latency_max = std::max(a.latency_max, r.latency);
    const std::uint64_t deadline = deadlines[spec.file];
    if (deadline > 0 && r.latency > deadline) ++a.missed_deadline;
    // Completed sessions must have reconstructed the broadcast bytes.
    ASSERT_EQ(r.data, contents[spec.file]) << "session " << i;
  }

  // Compare against the committed golden.
  auto golden = obs::ParseJson(scenario_util::ReadFileOrDie(
      fixtures / (std::string(kScenario) + ".golden.json")));
  ASSERT_TRUE(golden.ok()) << golden.status();
  const obs::JsonValue* files = golden->Find("files");
  ASSERT_TRUE(files != nullptr && files->is_array());
  ASSERT_EQ(files->array.size(), file_count);
  for (std::size_t f = 0; f < file_count; ++f) {
    const obs::JsonValue& gf = files->array[f];
    const FileAgg& a = agg[f];
    SCOPED_TRACE("file " + program.files()[f].name);
    EXPECT_EQ(a.attempts, static_cast<std::uint64_t>(Num(gf, "attempts")));
    EXPECT_EQ(a.completed, static_cast<std::uint64_t>(Num(gf, "completed")));
    EXPECT_EQ(a.incomplete,
              static_cast<std::uint64_t>(Num(gf, "incomplete")));
    EXPECT_EQ(a.missed_deadline,
              static_cast<std::uint64_t>(Num(gf, "missed_deadline")));
    const obs::JsonValue* latency = gf.Find("latency");
    ASSERT_TRUE(latency != nullptr && latency->is_object());
    EXPECT_EQ(a.completed,
              static_cast<std::uint64_t>(Num(*latency, "count")));
    EXPECT_EQ(a.latency_sum,
              static_cast<std::uint64_t>(Num(*latency, "sum")));
    EXPECT_EQ(a.latency_min, static_cast<std::uint64_t>(Num(*latency,
                                                            "min")));
    EXPECT_EQ(a.latency_max, static_cast<std::uint64_t>(Num(*latency,
                                                            "max")));
    if (a.completed > 0) {
      EXPECT_NEAR(static_cast<double>(a.latency_sum) /
                      static_cast<double>(a.completed),
                  Num(*latency, "mean"), 1e-9);
    }
  }
}

}  // namespace
}  // namespace bdisk::net
