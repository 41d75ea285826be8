// bench_net: token-bucket pacing accuracy on the real UDP data path.
//
// The broadcast server promises to hold the configured channel bandwidth
// (udp_server.h / rate_limiter.h document the ±5% contract); this bench
// MEASURES it and exits non-zero when any rate misses, so CI can gate on
// the claim instead of trusting the comment. Two layers are checked:
//
//  1. Virtual clock: drive TokenBucket::ReserveAt with a synthetic clock
//     and compare granted bytes against rate * elapsed. This is the
//     arithmetic itself — integer-nanosecond credit means the error must
//     stay within one datagram, far inside the gate.
//  2. Wall clock: serve a real broadcast program through a SocketSink to
//     a loopback socket at several rates and compare achieved wire
//     throughput (stats.bytes / stats.wall_ns) against the budget. The
//     primed-full bucket front-loads one burst, so short runs read a
//     fraction of a percent hot — the run length is sized to keep that
//     inside the gate with room to spare.
//
// Flags: --block-size SIZE (32KiB), --seconds S (1.0 per rate),
//        --tolerance-pct P (5.0), --threads N (reported).

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "bdisk/flat_builder.h"
#include "net/rate_limiter.h"
#include "net/udp_server.h"
#include "net/udp_socket.h"
#include "net/wire.h"
#include "runtime/flags.h"
#include "sim/server.h"

namespace {

namespace net = bdisk::net;
namespace broadcast = bdisk::broadcast;
namespace runtime = bdisk::runtime;
namespace sim = bdisk::sim;
using bdisk::Rng;

// Granted-rate error (percent) of the pure ReserveAt arithmetic on a
// virtual clock: reserve `sends` datagrams back to back and compare the
// span the bucket stretched them over against the ideal transmission
// time. No sleeping, no jitter — this isolates the credit arithmetic.
double VirtualClockErrorPct(std::uint64_t rate, std::uint64_t datagram_bytes,
                            std::uint64_t sends) {
  net::TokenBucket bucket(rate, /*burst_bytes=*/datagram_bytes);
  const std::uint64_t t0 = 1'000'000;  // arbitrary epoch
  std::uint64_t granted_at = t0;
  for (std::uint64_t i = 0; i < sends; ++i) {
    granted_at = bucket.ReserveAt(granted_at, datagram_bytes);
  }
  // The primed bucket grants the first datagram at t0; the rest must be
  // spaced at rate. Ideal span: (sends - 1) datagrams of transmission.
  const double ideal_ns = static_cast<double>(sends - 1) *
                          static_cast<double>(datagram_bytes) * 1e9 /
                          static_cast<double>(rate);
  const double actual_ns = static_cast<double>(granted_at - t0);
  return 100.0 * std::abs(actual_ns - ideal_ns) / ideal_ns;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads =
      runtime::OrExit(runtime::ConsumeThreadsFlagOnce(&argc, argv));
  const std::uint64_t block_size = runtime::OrExit(
      runtime::ConsumeByteSizeFlagOnce(&argc, argv, "block-size", 32 * 1024));
  const double seconds = runtime::OrExit(
      runtime::ConsumeDoubleFlagOnce(&argc, argv, "seconds", 1.0));
  const double tolerance_pct = runtime::OrExit(
      runtime::ConsumeDoubleFlagOnce(&argc, argv, "tolerance-pct", 5.0));
  runtime::OrExit(runtime::ExpectPositionals(argc, argv, 0));

  // A dense single-file program: every slot carries a block, so the wire
  // stream is uniform datagrams of block_size + header.
  auto program = broadcast::BuildFlatProgram(
      {{"A", 5, 10, {}}}, broadcast::FlatLayout::kSpread);
  if (!program.ok()) {
    std::fprintf(stderr, "program: %s\n", program.status().message().c_str());
    return 1;
  }
  Rng rng(7);
  std::vector<std::uint8_t> bytes(5 * block_size);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.Uniform(256));
  auto server = sim::BroadcastServer::Create(*program, {bytes}, block_size);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().message().c_str());
    return 1;
  }

  // A bound loopback receiver nobody reads: UDP makes dropping legal, and
  // the pacer's timing is what we are measuring, not delivery.
  auto recv_socket = net::UdpSocket::Bind(net::Endpoint{});
  if (!recv_socket.ok()) {
    std::fprintf(stderr, "bind: %s\n",
                 recv_socket.status().message().c_str());
    return 1;
  }
  auto send_socket = net::UdpSocket::Open();
  if (!send_socket.ok()) {
    std::fprintf(stderr, "open: %s\n",
                 send_socket.status().message().c_str());
    return 1;
  }
  net::Endpoint dest;
  dest.port = recv_socket->bound_port();

  const std::uint64_t datagram_bytes = net::kWireHeaderBytes + block_size;
  const double vclock_err =
      VirtualClockErrorPct(100'000'000, datagram_bytes, 100'000);
  benchutil::EmitJson("bench_net", "virtual_clock_error_pct", vclock_err,
                      threads);

  const std::uint64_t rates[] = {8ull << 20, 16ull << 20, 48ull << 20};
  bool gate_ok = vclock_err <= tolerance_pct;
  std::printf("%-14s %14s %14s %8s\n", "budget_B/s", "achieved_B/s",
              "datagrams", "err_pct");
  for (const std::uint64_t rate : rates) {
    net::UdpServerOptions options;
    options.bandwidth_bytes_per_sec = rate;
    options.horizon = static_cast<std::uint64_t>(
        seconds * static_cast<double>(rate) /
        static_cast<double>(datagram_bytes));
    if (options.horizon < 16) options.horizon = 16;
    net::SocketSink sink(&*send_socket, dest);
    auto stats = net::ServeBroadcast(&*server, &sink, options);
    if (!stats.ok()) {
      std::fprintf(stderr, "serve: %s\n", stats.status().message().c_str());
      return 1;
    }
    const double achieved = static_cast<double>(stats->bytes) * 1e9 /
                            static_cast<double>(stats->wall_ns);
    const double err_pct =
        100.0 * std::abs(achieved - static_cast<double>(rate)) /
        static_cast<double>(rate);
    std::printf("%-14" PRIu64 " %14.0f %14" PRIu64 " %8.3f\n", rate,
                achieved, stats->block_datagrams + stats->idle_datagrams,
                err_pct);
    char metric[64];
    std::snprintf(metric, sizeof(metric), "paced_error_pct_%" PRIu64 "MiB",
                  rate >> 20);
    benchutil::EmitJson("bench_net", metric, err_pct, threads);
    if (err_pct > tolerance_pct) gate_ok = false;
  }

  if (!gate_ok) {
    std::fprintf(stderr,
                 "FAIL: pacing error exceeded %.1f%% of the budget\n",
                 tolerance_pct);
    return 1;
  }
  std::printf("pacing held within %.1f%% at every rate\n", tolerance_pct);
  return 0;
}
