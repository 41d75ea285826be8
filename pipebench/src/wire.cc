// wire_1k: the whole data path over real UDP loopback.
//
// Set-up plans a generated byte-domain spec (~48 files, 1 KiB blocks)
// through ParseWorkloadSpec -> ChooseLargestFeasibleBlockSize (pinwheel
// CompositeScheduler), disperses and stamps every file, and commits the
// blocks to a BlockStore on a FileBlockDevice through
// BroadcastServer::CreateDiskBacked. A timed round then runs
// ServeBroadcast (unpaced) on one thread through a FaultingSocket
// (Gilbert-Elliott loss + corruption) into a SocketSink, and one UdpClient
// with 288 sessions (six per file) on the other. The loop is closed by WindowedSink:
// before each send it waits until the listener socket's queued bytes are
// under a fixed window, so the kernel never drops a datagram.
//
// The traced run replays the two loops in one thread with the same public
// calls, because ServeBroadcast and UdpClient::Run have no seam inside.

#include <dirent.h>
#include <linux/sock_diag.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bdisk/block_size.h"
#include "bdisk/spec_parser.h"
#include "common/random.h"
#include "faults/channel_spec.h"
#include "net/faulting_socket.h"
#include "net/udp_client.h"
#include "net/udp_server.h"
#include "net/udp_socket.h"
#include "net/wire.h"
#include "pinwheel/composite_scheduler.h"
#include "sim/client.h"
#include "sim/server.h"
#include "store/block_store.h"
#include "workloads.h"

namespace pipebench {
namespace {

namespace broadcast = bdisk::broadcast;
namespace faults = bdisk::faults;
namespace ida = bdisk::ida;
namespace net = bdisk::net;
namespace sim = bdisk::sim;
namespace store = bdisk::store;
using bdisk::Result;
using bdisk::Rng;
using bdisk::Status;

constexpr std::uint64_t kBlockSize = 1024;
constexpr std::uint32_t kFiles = 48;
// 1900 blocks/s: density ~0.5 for the spec below.
constexpr std::uint64_t kChannelBytesPerSecond = 1900 * kBlockSize;
// Listener queue bound the sender waits on (halved if SO_RCVBUF is
// smaller than twice this).
constexpr std::uint64_t kWindowBytes = 1 << 20;
constexpr int kEndRepeats = 3;
constexpr std::uint32_t kSessions = 288;
// Slots a round serves.
constexpr std::uint64_t kHorizon = 60000;
// Sessions cross-checked against the in-process reference.
constexpr std::uint32_t kReferenceSample = 16;
// Longest the sender waits for window credit before declaring the
// listener dead (a failed round, never a hang).
constexpr std::uint64_t kWindowTimeoutNs = 10'000'000'000ULL;

// Four latency classes of growing size (4-32 KiB, 0.25-2 s); fault
// tolerance cycles 1..3. The spec does not depend on the seed: every seed
// plans the same program (and pays the same planning cost), and seeds
// vary the contents, the channel and the sessions.
std::string WireSpecText() {
  static constexpr double kLatencySeconds[4] = {0.25, 0.5, 1.0, 2.0};
  static constexpr std::uint64_t kBytes[4] = {4096, 8192, 16384, 32768};
  std::ostringstream out;
  out << "# wire_1k\n";
  out << "channel " << kChannelBytesPerSecond << "\n";
  out << "blocksize " << kBlockSize << "\n";
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    const std::uint32_t cls = i % 4;
    const std::uint64_t faults = 1 + (i / 4) % 3;
    // Sizes step by 1% within a class, so files differ in geometry.
    const std::uint64_t bytes = kBytes[cls] * (95 + (i / 4) % 11) / 100;
    out << "file f" << i << " bytes=" << bytes
        << " latency=" << kLatencySeconds[cls] << " faults=" << faults << "\n";
  }
  return out.str();
}

// Bursty loss (stationary ~0.1%, mean burst 2 slots) plus rare
// corruption: almost always inside the program's fault budget, so the
// delays exercise the pinwheel guarantee rather than the channel's tail,
// while the shim still drops and damages real datagrams in every round.
std::string WireChannelSpec(std::uint64_t seed) {
  return "gilbert:pgb=0.0005,pbg=0.5,seed=" + std::to_string(2 * seed + 1) +
         "+corrupt:p=0.0005,seed=" + std::to_string(2 * seed + 2);
}

/// Everything set-up builds; rounds reuse it.
struct WireSetup {
  broadcast::BroadcastProgram program;
  std::size_t block_size = 0;
  std::vector<std::vector<std::uint8_t>> contents;
  std::unique_ptr<faults::ChannelModel> channel;
  std::unique_ptr<store::BlockStore> store;
  CountingDevice* device = nullptr;  // owned by `store`
  std::string device_path;
  std::optional<sim::BroadcastServer> server;
  std::optional<net::UdpSocket> sender;
  std::vector<net::WireSession> sessions;
  std::uint64_t horizon = 0;
  double plan_ms = 0.0;
  double commit_ms = 0.0;
  std::uint64_t commits = 0;
  /// Device operations of the set-up commit.
  DeviceCounts setup_counts;
  std::uint64_t coded_blocks = 0;
};

Result<WireSetup> SetUpWire(const Options& options) {
  WireSetup s;
  const std::uint64_t t_plan = NowNs();
  BDISK_ASSIGN_OR_RETURN(
      broadcast::WorkloadSpec spec,
      broadcast::ParseWorkloadSpec(WireSpecText()));
  const bdisk::pinwheel::CompositeScheduler scheduler;
  BDISK_ASSIGN_OR_RETURN(
      broadcast::BlockSizeChoice choice,
      broadcast::ChooseLargestFeasibleBlockSize(
          spec.byte_files, spec.channel_bytes_per_second, scheduler,
          {spec.block_size}));
  s.plan_ms = static_cast<double>(NowNs() - t_plan) / 1e6;
  s.program = std::move(choice.build.program);
  s.block_size = choice.block_size;

  std::uint64_t coded_blocks = 0;
  std::uint64_t max_latency = 0;
  for (std::size_t f = 0; f < s.program.file_count(); ++f) {
    const broadcast::ProgramFile& pf = s.program.files()[f];
    Rng rng(options.seed * 1000003ULL + f);
    std::vector<std::uint8_t> bytes(pf.m * s.block_size);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.Uniform(256));
    s.contents.push_back(std::move(bytes));
    coded_blocks += pf.n;
    for (const std::uint64_t d : pf.latency_slots) {
      max_latency = std::max(max_latency, d);
    }
  }
  BDISK_ASSIGN_OR_RETURN(s.channel,
                         faults::ParseChannelSpec(WireChannelSpec(options.seed)));

  // One device sector per 1 KiB block; room for the blocks, two catalog
  // generations and the superblocks.
  s.device_path = options.work_dir + "/wire_store.dev";
  BDISK_ASSIGN_OR_RETURN(
      std::unique_ptr<store::FileBlockDevice> file_device,
      store::FileBlockDevice::Create(s.device_path, s.block_size,
                                     2 * coded_blocks + 512));
  auto counting = std::make_unique<CountingDevice>(std::move(file_device));
  s.device = counting.get();
  BDISK_ASSIGN_OR_RETURN(s.store, store::BlockStore::Format(std::move(counting)));
  BDISK_ASSIGN_OR_RETURN(
      sim::BroadcastServer server,
      sim::BroadcastServer::CreateDiskBacked(
          sim::EpochSchedule::Single(s.program), s.contents, s.block_size,
          s.store.get()));
  s.server.emplace(std::move(server));
  s.setup_counts = s.device->counts();
  s.coded_blocks = coded_blocks;
  s.commit_ms = static_cast<double>(s.setup_counts.write_ns) / 1e6;
  s.commits = s.store->generation();
  BDISK_ASSIGN_OR_RETURN(net::UdpSocket sender, net::UdpSocket::Open());
  s.sender.emplace(std::move(sender));

  // Sessions: the same number per file, seeded stratified start slots,
  // with a tail of four worst-case latencies so every session completes
  // before the horizon.
  const std::uint64_t tail = 4 * max_latency;
  if (kHorizon < 2 * tail) {
    return Status::Internal("wire_1k: horizon too short for the latencies");
  }
  s.horizon = kHorizon;
  const std::vector<std::uint64_t> starts =
      StratifiedStarts(kSessions, s.horizon - tail, options.seed);
  for (std::uint32_t i = 0; i < kSessions; ++i) {
    net::WireSession ws;
    ws.file = static_cast<broadcast::FileIndex>(i % s.program.file_count());
    ws.m = s.program.files()[ws.file].m;
    ws.n = s.program.files()[ws.file].n;
    ws.start_slot = starts[i];
    s.sessions.push_back(ws);
  }
  return s;
}

/// The listener's socket fd, found by matching its bound port.
int FindUdpFdByPort(std::uint16_t port) {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int found = -1;
  while (const dirent* entry = readdir(dir)) {
    const int fd = std::atoi(entry->d_name);
    if (fd <= 2) continue;
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      continue;
    }
    int type = 0;
    socklen_t type_len = sizeof(type);
    if (addr.sin_family == AF_INET && ntohs(addr.sin_port) == port &&
        getsockopt(fd, SOL_SOCKET, SO_TYPE, &type, &type_len) == 0 &&
        type == SOCK_DGRAM) {
      found = fd;
      break;
    }
  }
  closedir(dir);
  return found;
}

/// Bytes the kernel holds for `fd`'s receive queue (skb truesize).
std::uint64_t ReceiveQueueBytes(int fd) {
  std::uint32_t meminfo[SK_MEMINFO_VARS] = {};
  socklen_t len = sizeof(meminfo);
  if (getsockopt(fd, SOL_SOCKET, SO_MEMINFO, meminfo, &len) != 0) return 0;
  return meminfo[SK_MEMINFO_RMEM_ALLOC];
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// The benchmark's WireSink decorator that closes the loop: before each
/// send it waits until the listener's queue is under `window` bytes. It
/// reads the queue once per batch of credit, so the check costs one
/// getsockopt per ~hundreds of datagrams while the listener keeps up.
/// It also samples the server's per-slot time: from the end of one
/// window wait to the next send's entry, i.e. fault shim + socket send of
/// one slot and fetch + encode of the next, with the wait left out.
class WindowedSink final : public net::WireSink {
 public:
  WindowedSink(net::WireSink* next, int listener_fd, std::uint64_t window,
               std::uint64_t datagram_bytes,
               std::vector<std::uint32_t>* slot_samples)
      : next_(next),
        fd_(listener_fd),
        window_(window),
        // Conservative skb truesize of one datagram on loopback.
        truesize_(2 * datagram_bytes + 1024),
        slot_samples_(slot_samples) {}

  Status SendDatagram(const std::uint8_t* data, std::size_t size) override {
    const std::uint64_t entry = NowNs();
    if (resume_ != 0 && slot_samples_ != nullptr) {
      slot_samples_->push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(entry - resume_, 0xFFFFFFFFu)));
    }
    resume_ = entry;
    if (credit_ == 0) BDISK_RETURN_NOT_OK(WaitForCredit());
    --credit_;
    return next_->SendDatagram(data, size);
  }

  std::uint64_t wait_ns() const { return wait_ns_; }
  std::uint64_t harness_cpu_ns() const { return harness_cpu_ns_; }

 private:
  Status WaitForCredit() {
    const std::uint64_t cpu0 = ThreadCpuNs();
    const std::uint64_t t0 = NowNs();
    std::uint64_t queued = 0;
    for (;;) {
      queued = ReceiveQueueBytes(fd_);
      if (queued + truesize_ <= window_) break;
      if (NowNs() - t0 > kWindowTimeoutNs) {
        return Status::Internal("pipebench: listener stopped draining");
      }
      for (int i = 0; i < 32; ++i) CpuRelax();
    }
    credit_ = std::max<std::uint64_t>(1, (window_ - queued) / truesize_);
    // The slot's clock restarts after the wait: it is not server work.
    resume_ = NowNs();
    wait_ns_ += resume_ - t0;
    harness_cpu_ns_ += ThreadCpuNs() - cpu0;
    return Status::OK();
  }

  net::WireSink* next_;
  int fd_;
  std::uint64_t window_;
  std::uint64_t truesize_;
  std::vector<std::uint32_t>* slot_samples_;
  std::uint64_t credit_ = 0;
  // When the current slot's clock started (0 before the first send).
  std::uint64_t resume_ = 0;
  std::uint64_t wait_ns_ = 0;
  std::uint64_t harness_cpu_ns_ = 0;
};

/// One threaded round's measurements and outputs.
struct WireRound {
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;          // process CPU minus the window wait
  std::uint64_t server_cpu_ns = 0;   // server thread, minus the window wait
  std::uint64_t server_wall_ns = 0;
  std::uint64_t listener_cpu_ns = 0;
  std::uint64_t wait_ns = 0;
  std::uint64_t ops = 0;             // block datagrams received
  std::uint64_t emitted = 0;
  std::uint64_t received = 0;
  std::uint64_t channel_dropped = 0;
  std::uint64_t kernel_drops = 0;
  std::vector<net::WireSessionResult> results;
};

Result<WireRound> RunWireRound(WireSetup* s,
                               std::vector<std::uint32_t>* slot_samples) {
  net::UdpClientOptions client_options;
  client_options.block_size = s->block_size;
  client_options.idle_timeout_ms = 10000;
  BDISK_ASSIGN_OR_RETURN(net::UdpClient client,
                         net::UdpClient::Create(client_options));
  for (const net::WireSession& ws : s->sessions) client.AddSession(ws);
  const int fd = FindUdpFdByPort(client.bound_port());
  if (fd < 0) return Status::Internal("pipebench: listener fd not found");
  int rcvbuf = 0;
  socklen_t rcvbuf_len = sizeof(rcvbuf);
  if (getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, &rcvbuf_len) != 0) {
    return Status::Internal("pipebench: SO_RCVBUF unreadable");
  }
  const std::uint64_t window = std::min<std::uint64_t>(
      kWindowBytes, static_cast<std::uint64_t>(rcvbuf) / 2);

  net::Endpoint dest;
  dest.port = client.bound_port();
  net::SocketSink socket_sink(&*s->sender, dest);
  net::FaultingSocket faulting(s->channel.get(), &socket_sink);
  WindowedSink windowed(&faulting, fd, window,
                        net::kWireHeaderBytes + s->block_size, slot_samples);
  net::UdpServerOptions server_options;
  server_options.horizon = s->horizon;
  server_options.end_repeats = kEndRepeats;
  server_options.emit_idle_beacons = false;

  WireRound round;
  Result<net::UdpServerStats> served =
      Status::Internal("server thread never ran");
  const std::uint64_t cpu0 = ProcessCpuNs();
  const std::uint64_t t0 = NowNs();
  std::thread server_thread([&] {
    const std::uint64_t c0 = ThreadCpuNs();
    served = net::ServeBroadcast(&*s->server, &windowed, server_options);
    round.server_cpu_ns = ThreadCpuNs() - c0;
  });
  const std::uint64_t l0 = ThreadCpuNs();
  Result<std::vector<net::WireSessionResult>> results = client.Run();
  round.listener_cpu_ns = ThreadCpuNs() - l0;
  server_thread.join();
  round.wall_ns = NowNs() - t0;
  round.cpu_ns = ProcessCpuNs() - cpu0 - windowed.harness_cpu_ns();
  round.server_cpu_ns -= std::min(round.server_cpu_ns,
                                  windowed.harness_cpu_ns());
  BDISK_RETURN_NOT_OK(served.status());
  BDISK_RETURN_NOT_OK(results.status());
  round.results = std::move(*results);
  round.server_wall_ns = served->wall_ns;
  round.wait_ns = windowed.wait_ns();

  // Datagram accounting from outside src/net: everything emitted was
  // received, dropped by the channel, or left unread as an end-of-stream
  // repeat after the first; anything else was dropped by the kernel.
  const net::UdpClientStats& cs = client.stats();
  round.ops = cs.block_datagrams;
  round.emitted =
      served->block_datagrams + served->idle_datagrams + served->end_datagrams;
  round.received = cs.datagrams;
  round.channel_dropped = faulting.dropped();
  const std::uint64_t unread_end =
      cs.end_seen ? static_cast<std::uint64_t>(kEndRepeats - 1) : 0;
  const std::uint64_t accounted =
      round.received + round.channel_dropped + unread_end;
  round.kernel_drops = round.emitted > accounted ? round.emitted - accounted : 0;
  if (round.emitted < accounted || cs.decode_errors != 0) {
    return Status::Internal("pipebench: datagram accounting does not add up");
  }
  return round;
}

/// WireSink decorator for the traced replay: a span around the socket
/// send, so the fault shim's self time excludes it.
class TimedSink final : public net::WireSink {
 public:
  TimedSink(net::WireSink* next, Tracer* tracer)
      : next_(next), tracer_(tracer) {}
  Status SendDatagram(const std::uint8_t* data, std::size_t size) override {
    ScopedSpan span(tracer_, Layer::kSend);
    return next_->SendDatagram(data, size);
  }

 private:
  net::WireSink* next_;
  Tracer* tracer_;
};

struct ReplaySession {
  net::WireSession spec;
  sim::ReconstructingClient client;
  bool tuned_in = false;
  bool completed = false;
  std::uint64_t start = 0;
  std::uint64_t latency = 0;
};

/// Counters of one replay.
struct WireReplay {
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t slots = 0;
  std::uint64_t fetches = 0;        // blocks read from the store
  std::uint64_t sent = 0;           // datagrams into the fault shim
  std::uint64_t received = 0;
  std::uint64_t block_datagrams = 0;
  std::uint64_t offers = 0;         // OfferEx calls
  std::uint64_t useful_offers = 0;  // accepted or completed
  std::uint64_t crc_offers = 0;     // offers that reached the checksum
  std::uint64_t checksum_rejects = 0;
  std::uint64_t device_reads = 0;
  std::uint64_t retrievals = 0;
  std::uint64_t failed = 0;         // incomplete or not byte-exact
  std::vector<std::uint64_t> latencies;
};

Result<WireReplay> ReplayWire(WireSetup* s, Tracer* tracer) {
  BDISK_ASSIGN_OR_RETURN(net::UdpSocket listener,
                         net::UdpSocket::Bind(net::Endpoint{}));
  BDISK_RETURN_NOT_OK(listener.SetRecvBufferBytes(4 << 20));
  net::Endpoint dest;
  dest.port = listener.bound_port();
  net::SocketSink socket_sink(&*s->sender, dest);
  TimedSink timed(&socket_sink, tracer);
  net::FaultingSocket faulting(s->channel.get(), &timed);

  std::vector<ReplaySession> sessions;
  sessions.reserve(s->sessions.size());
  for (const net::WireSession& ws : s->sessions) {
    sessions.push_back(ReplaySession{
        ws, sim::ReconstructingClient(static_cast<ida::FileId>(ws.file), ws.m,
                                      ws.n, s->block_size)});
    sessions.back().client.set_require_checksums(true);
  }
  std::vector<std::uint8_t> buf(65536);
  s->device->set_tracer(tracer);
  s->device->ResetCounts();

  WireReplay r;
  const auto receive = [&](std::optional<std::size_t>* n) -> Status {
    ScopedSpan span(tracer, Layer::kRecv);
    BDISK_ASSIGN_OR_RETURN(*n, listener.Recv(buf.data(), buf.size()));
    if (!n->has_value()) {
      // Loopback delivers before sendto returns; wait briefly anyway.
      BDISK_ASSIGN_OR_RETURN(bool readable, listener.PollReadable(1000));
      if (!readable) return Status::Internal("pipebench: replay lost a datagram");
      BDISK_ASSIGN_OR_RETURN(*n, listener.Recv(buf.data(), buf.size()));
    }
    return Status::OK();
  };

  const std::uint64_t allocs0 = AllocationCount();
  const std::uint64_t cpu0 = ThreadCpuNs();
  const std::uint64_t t0 = NowNs();
  for (std::uint64_t t = 0; t < s->horizon; ++t) {
    ++r.slots;
    std::optional<ida::Block> block;
    {
      ScopedSpan span(tracer, Layer::kFetch, t);
      BDISK_ASSIGN_OR_RETURN(block, s->server->FetchTransmission(t));
    }
    if (!block.has_value()) continue;  // idle slot: no beacon, as served
    ++r.fetches;
    const std::uint64_t epoch = s->server->schedule().EpochIndexAt(t);
    std::vector<std::uint8_t> datagram;
    {
      ScopedSpan span(tracer, Layer::kEncode, t);
      datagram = net::EncodeBlockDatagram(t, epoch, *block);
    }
    const std::uint64_t forwarded = faulting.forwarded();
    {
      ScopedSpan span(tracer, Layer::kShim, t);
      BDISK_RETURN_NOT_OK(faulting.SendDatagram(datagram.data(),
                                                datagram.size()));
    }
    ++r.sent;
    if (faulting.forwarded() == forwarded) continue;  // lost on the channel
    std::optional<std::size_t> n;
    BDISK_RETURN_NOT_OK(receive(&n));
    ++r.received;
    std::optional<net::WireDatagram> decoded;
    {
      ScopedSpan span(tracer, Layer::kDecode, t);
      auto d = net::DecodeDatagram(buf.data(), *n);
      if (d.ok()) decoded.emplace(std::move(*d));
    }
    if (!decoded.has_value() || decoded->type != net::DatagramType::kBlock) {
      return Status::Internal("pipebench: replay decoded a non-block datagram");
    }
    ++r.block_datagrams;
    // UdpClient::OfferToSessions, call for call.
    ScopedSpan span(tracer, Layer::kOffer, t);
    for (ReplaySession& rs : sessions) {
      if (!rs.tuned_in) {
        if (decoded->slot < *rs.spec.start_slot) continue;
        rs.start = *rs.spec.start_slot;
        rs.tuned_in = true;
      }
      if (rs.completed) continue;
      const sim::OfferOutcome outcome =
          rs.client.OfferEx(decoded->block, decoded->epoch);
      ++r.offers;
      if (outcome != sim::OfferOutcome::kWrongFile) ++r.crc_offers;
      if (outcome == sim::OfferOutcome::kAccepted ||
          outcome == sim::OfferOutcome::kCompleted) {
        ++r.useful_offers;
      }
      if (sim::OfferSatisfied(outcome)) {
        rs.completed = true;
        rs.latency = decoded->slot - rs.start + 1;
      }
    }
  }
  // One end-of-stream datagram, as the listener reads it.
  {
    std::vector<std::uint8_t> datagram;
    {
      ScopedSpan span(tracer, Layer::kEncode);
      datagram = net::EncodeControlDatagram(net::DatagramType::kEnd,
                                            s->horizon, 0);
    }
    {
      ScopedSpan span(tracer, Layer::kShim);
      BDISK_RETURN_NOT_OK(faulting.SendDatagram(datagram.data(),
                                                datagram.size()));
    }
    ++r.sent;
    std::optional<std::size_t> n;
    BDISK_RETURN_NOT_OK(receive(&n));
    ++r.received;
    ScopedSpan span(tracer, Layer::kDecode);
    if (!net::DecodeDatagram(buf.data(), *n).ok()) {
      return Status::Internal("pipebench: end datagram did not decode");
    }
  }
  std::vector<std::vector<std::uint8_t>> data(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (!sessions[i].completed) continue;
    ScopedSpan span(tracer, Layer::kReconstruct, i);
    auto bytes = sessions[i].client.Reconstruct();
    if (bytes.ok()) data[i] = std::move(*bytes);
  }
  r.wall_ns = NowNs() - t0;
  r.cpu_ns = ThreadCpuNs() - cpu0;
  r.allocs = AllocationCount() - allocs0;
  r.device_reads = s->device->counts().reads;
  s->device->set_tracer(nullptr);

  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const ReplaySession& rs = sessions[i];
    ++r.retrievals;
    r.checksum_rejects += rs.client.checksum_rejected();
    r.latencies.push_back(rs.latency);
    if (!rs.completed || data[i] != s->contents[rs.spec.file]) ++r.failed;
  }
  return r;
}

/// Latencies of a seeded sample of sessions, from the in-process
/// RunRetrievalSession on an in-memory twin of the disk-backed server
/// (TransmissionAt CHECK-fails on disk-backed servers).
struct WireReference {
  std::vector<std::size_t> sample;
  std::vector<std::uint64_t> latency;
  double disperse_ms = 0.0;
};

Result<WireReference> BuildReference(const WireSetup& s, std::uint64_t seed) {
  WireReference ref;
  const std::uint64_t t0 = NowNs();
  BDISK_ASSIGN_OR_RETURN(
      sim::BroadcastServer twin,
      sim::BroadcastServer::Create(s.program, s.contents, s.block_size));
  ref.disperse_ms = static_cast<double>(NowNs() - t0) / 1e6;
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 3);
  for (std::uint32_t k = 0; k < kReferenceSample; ++k) {
    const std::size_t i = rng.Uniform(s.sessions.size());
    const net::WireSession& ws = s.sessions[i];
    BDISK_ASSIGN_OR_RETURN(
        sim::SessionResult result,
        sim::RunRetrievalSession(twin, *s.channel, ws.file, *ws.start_slot,
                                 s.horizon));
    ref.sample.push_back(i);
    ref.latency.push_back(result.completed ? result.latency : 0);
  }
  return ref;
}

/// Checks a round's sessions against the contents and the reference;
/// returns the number of failed retrievals.
std::uint64_t CheckRetrievals(const WireReference& ref,
                              const std::vector<std::uint64_t>& latencies,
                              const std::vector<bool>& exact, Report* report) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    if (latencies[i] == 0 || !exact[i]) ++failed;
  }
  for (std::size_t k = 0; k < ref.sample.size(); ++k) {
    if (latencies[ref.sample[k]] != ref.latency[k]) {
      report->Fail("session " + std::to_string(ref.sample[k]) +
                   " latency " + std::to_string(latencies[ref.sample[k]]) +
                   " != in-process reference " +
                   std::to_string(ref.latency[k]));
      ++failed;
    }
  }
  if (failed > 0 && report->correct) {
    report->Fail(std::to_string(failed) +
                 " retrievals incomplete or not byte-exact");
  }
  return failed;
}

}  // namespace

Report RunWire(const Options& options, Deterministic* out) {
  Report report;
  std::filesystem::create_directories(options.work_dir);

  // Threaded rounds (the untraced measurement), each after a fresh
  // set-up. A traced run spends half its time here and half in the
  // replay, which reuses the last set-up.
  const double threaded_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> setup_s;
  std::optional<WireSetup> setup;
  std::optional<WireReference> ref;
  std::vector<double> ops_per_s, cpu_per_op, server_cpu, listener_cpu;
  std::vector<std::uint32_t> slot_samples;
  SlotTimes slot_times;
  std::uint64_t attempted = 0, failed = 0, kernel_drops = 0;
  std::uint64_t wait_ns = 0, server_wall_ns = 0;
  std::vector<std::uint64_t> first_latencies;
  std::vector<std::uint64_t> ages;
  std::uint64_t first_ops = 0, first_received = 0;
  const std::uint64_t phase0 = NowNs();
  while (ops_per_s.size() < 2 ||
         static_cast<double>(NowNs() - phase0) / 1e9 < threaded_seconds) {
    const Status set_up =
        TimedSetUp(&setup, &setup_s, [&] { return SetUpWire(options); });
    if (!set_up.ok()) {
      report.Fail("set-up: " + set_up.ToString());
      return report;
    }
    WireSetup& s = *setup;
    if (!ref.has_value()) {
      Result<WireReference> built = BuildReference(s, options.seed);
      if (!built.ok()) {
        report.Fail("reference: " + built.status().ToString());
        return report;
      }
      ref.emplace(std::move(*built));
      report.notes.push_back(
          "wire_1k: " + std::to_string(s.program.file_count()) + " files, " +
          std::to_string(s.sessions.size()) + " sessions, horizon " +
          std::to_string(s.horizon) + " slots, period " +
          std::to_string(s.program.period()) + ", channel " +
          WireChannelSpec(options.seed));
    }
    Result<WireRound> round = RunWireRound(&s, &slot_samples);
    if (!round.ok()) {
      report.Fail("round: " + round.status().ToString());
      return report;
    }
    slot_times.AddRound(&slot_samples);
    std::vector<std::uint64_t> latencies;
    std::vector<bool> exact;
    for (std::size_t i = 0; i < round->results.size(); ++i) {
      const sim::SessionResult& r = round->results[i].session;
      latencies.push_back(r.completed ? r.latency : 0);
      exact.push_back(r.completed &&
                      r.data == s.contents[s.sessions[i].file]);
    }
    const std::uint64_t round_failed =
        CheckRetrievals(*ref, latencies, exact, &report);
    if (first_latencies.empty()) {
      first_latencies = latencies;
      first_ops = round->ops;
      first_received = round->received;
      for (const net::WireSessionResult& r : round->results) {
        ages.push_back(r.session.completion_slot + 1);
      }
    } else if (latencies != first_latencies || round->ops != first_ops) {
      report.Fail("rounds of one seed disagree");
    }
    attempted += round->results.size() + round->emitted;
    failed += round_failed + round->kernel_drops;
    kernel_drops += round->kernel_drops;
    wait_ns += round->wait_ns;
    server_wall_ns += round->server_wall_ns;
    const double ops = static_cast<double>(round->ops);
    ops_per_s.push_back(ops / (static_cast<double>(round->wall_ns) / 1e9));
    cpu_per_op.push_back(PerOp(static_cast<double>(round->cpu_ns), ops));
    server_cpu.push_back(PerOp(static_cast<double>(round->server_cpu_ns), ops));
    listener_cpu.push_back(
        PerOp(static_cast<double>(round->listener_cpu_ns), ops));
  }
  WireSetup& s = *setup;
  if (kernel_drops > 0) {
    report.Fail(std::to_string(kernel_drops) + " datagrams dropped in the kernel");
  }
  report.attempted = attempted;
  report.failed = failed;
  if (out != nullptr) {
    out->delays = first_latencies;
    out->ages = ages;
    out->ops = first_ops;
    out->datagrams = first_received;
    out->commits = s.commits;
  }
  const double cpu_ns_per_op = Median(cpu_per_op);

  if (!options.trace) {
    double sum = 0.0, max = 0.0, age_sum = 0.0;
    for (std::size_t i = 0; i < first_latencies.size(); ++i) {
      sum += static_cast<double>(first_latencies[i]);
      max = std::max(max, static_cast<double>(first_latencies[i]));
      age_sum += static_cast<double>(ages[i]);
    }
    const double n = static_cast<double>(first_latencies.size());
    report.Add("ops_per_s", Median(ops_per_s), "1/s");
    report.Add("cpu_ns_per_op", cpu_ns_per_op, "ns");
    report.Add("mean_delay_slots", sum / n, "slots");
    report.Add("max_delay_slots", max, "slots");
    report.Add("mean_data_age_slots", age_sum / n, "slots");
    report.Add("slot_us_p50", Median(slot_times.p50_us), "us");
    report.Add("slot_us_p99", Median(slot_times.p99_us), "us");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("setup_s", Median(setup_s), "s");
    report.NoteSeries("set-up seconds", setup_s);
    report.notes.push_back(
        "wire_1k: " + std::to_string(ops_per_s.size()) + " rounds, " +
        std::to_string(slot_times.samples) + " slot samples, window wait " +
        std::to_string(server_wall_ns > 0
                           ? static_cast<double>(wait_ns) /
                                 static_cast<double>(server_wall_ns)
                           : 0.0) +
        " of server wall");
    std::filesystem::remove(s.device_path);
    return report;
  }

  // Traced run: alternate untraced and traced replays.
  Tracer tracer(200000);
  std::vector<double> plain_cpu_per_op, traced_cpu_per_op;
  WireReplay traced_sum;
  std::uint64_t plain_allocs = 0, plain_datagrams = 0;
  const std::uint64_t replay0 = NowNs();
  while (traced_cpu_per_op.size() < 2 ||
         static_cast<double>(NowNs() - replay0) / 1e9 < options.seconds / 2) {
    for (Tracer* t : {static_cast<Tracer*>(nullptr), &tracer}) {
      Result<WireReplay> r = ReplayWire(&s, t);
      if (!r.ok()) {
        report.Fail("replay: " + r.status().ToString());
        return report;
      }
      if (r->failed > 0 || r->latencies != first_latencies) {
        report.Fail("replay disagrees with the threaded rounds");
      }
      const double ops = static_cast<double>(r->block_datagrams);
      if (t == nullptr) {
        plain_cpu_per_op.push_back(PerOp(static_cast<double>(r->cpu_ns), ops));
        plain_allocs += r->allocs;
        plain_datagrams += r->sent;
      } else {
        traced_cpu_per_op.push_back(PerOp(static_cast<double>(r->cpu_ns), ops));
        traced_sum.slots += r->slots;
        traced_sum.fetches += r->fetches;
        traced_sum.sent += r->sent;
        traced_sum.received += r->received;
        traced_sum.block_datagrams += r->block_datagrams;
        traced_sum.offers += r->offers;
        traced_sum.useful_offers += r->useful_offers;
        traced_sum.crc_offers += r->crc_offers;
        traced_sum.checksum_rejects += r->checksum_rejects;
        traced_sum.device_reads += r->device_reads;
        traced_sum.retrievals += r->retrievals;
      }
    }
  }
  const std::string span_path = options.work_dir + "/spans_wire_1k.jsonl";
  if (!tracer.WriteSpans(span_path)) report.Fail("cannot write " + span_path);

  // FillFaults over the horizon, repeated for a stable figure.
  std::vector<faults::FaultType> trace(s.horizon);
  std::uint64_t fill_ns = 0, fill_slots = 0;
  while (fill_ns < 20'000'000) {
    const std::uint64_t t0 = NowNs();
    s.channel->FillFaults(0, s.horizon, trace.data());
    fill_ns += NowNs() - t0;
    fill_slots += s.horizon;
  }

  const double ops = static_cast<double>(traced_sum.block_datagrams);
  const auto self = [&](Layer l) {
    return static_cast<double>(tracer.self_ns(l));
  };
  const double attributed = PerOp(static_cast<double>(tracer.SelfNsSum()), ops);
  const double plain = Median(plain_cpu_per_op);
  const double block_bytes = static_cast<double>(s.block_size) +
                             static_cast<double>(ida::kBlockIdentityBytes);
  report.Add("net.window_wait_frac",
             server_wall_ns > 0 ? static_cast<double>(wait_ns) /
                                      static_cast<double>(server_wall_ns)
                                : 0.0,
             "1");
  report.Add("net.server_cpu_ns_per_op", Median(server_cpu), "ns");
  report.Add("net.listener_cpu_ns_per_op", Median(listener_cpu), "ns");
  report.Add("net.encode_ns_per_datagram",
             PerOp(self(Layer::kEncode), static_cast<double>(traced_sum.sent)),
             "ns");
  report.Add("net.decode_ns_per_datagram",
             PerOp(self(Layer::kDecode),
                   static_cast<double>(traced_sum.received)),
             "ns");
  report.Add("net.send_ns_per_datagram",
             PerOp(self(Layer::kSend),
                   static_cast<double>(tracer.count(Layer::kSend))),
             "ns");
  report.Add("net.recv_ns_per_datagram",
             PerOp(self(Layer::kRecv),
                   static_cast<double>(traced_sum.received)),
             "ns");
  report.Add("net.allocs_per_datagram",
             PerOp(static_cast<double>(plain_allocs),
                   static_cast<double>(plain_datagrams)),
             "count");
  report.Add("net.kernel_drops", static_cast<double>(kernel_drops), "count");
  report.Add("faults.shim_ns_per_datagram",
             PerOp(self(Layer::kShim), static_cast<double>(traced_sum.sent)),
             "ns");
  report.Add("faults.fill_ns_per_slot",
             PerOp(static_cast<double>(fill_ns),
                   static_cast<double>(fill_slots)),
             "ns");
  report.Add("sim.fetch_ns_per_slot",
             PerOp(self(Layer::kFetch), static_cast<double>(traced_sum.slots)),
             "ns");
  report.Add("sim.offer_ns_per_datagram", PerOp(self(Layer::kOffer), ops),
             "ns");
  report.Add("sim.offers_per_datagram",
             PerOp(static_cast<double>(traced_sum.offers), ops), "count");
  report.Add("sim.offer_useful_frac",
             PerOp(static_cast<double>(traced_sum.useful_offers),
                   static_cast<double>(traced_sum.offers)),
             "1");
  report.Add("sim.checksum_rejects",
             static_cast<double>(traced_sum.checksum_rejects), "count");
  report.Add("store.device_reads_per_block",
             PerOp(static_cast<double>(traced_sum.device_reads),
                   static_cast<double>(traced_sum.fetches)),
             "count");
  report.Add("store.read_ns_per_block",
             PerOp(self(Layer::kStoreRead),
                   static_cast<double>(traced_sum.fetches)),
             "ns");
  const double entries = static_cast<double>(s.store->catalog().size());
  report.Add("store.device_bytes_written_per_user_byte",
             PerOp(static_cast<double>(s.setup_counts.writes) *
                       static_cast<double>(s.store->device()->block_size()),
                   static_cast<double>(s.coded_blocks * s.block_size)),
             "1");
  report.Add("store.syncs_per_version",
             PerOp(static_cast<double>(s.setup_counts.syncs), entries),
             "count");
  report.Add("store.catalog_entries", entries, "count");
  report.Add("ida.reconstruct_us_per_retrieval",
             PerOp(self(Layer::kReconstruct),
                   static_cast<double>(traced_sum.retrievals)) /
                 1e3,
             "us");
  report.Add("ida.crc_bytes_per_op",
             PerOp(static_cast<double>(traced_sum.fetches +
                                       traced_sum.crc_offers) *
                       block_bytes,
                   ops),
             "count");
  report.Add("ida.crc_ns_per_kib", CrcNsPerKib(s.block_size), "ns");
  report.Add("ida.disperse_us_per_version",
             ref->disperse_ms * 1e3 / static_cast<double>(s.program.file_count()),
             "us");
  report.Add("bdisk.plan_ms", s.plan_ms, "ms");
  report.Add("ida.disperse_ms_setup", ref->disperse_ms, "ms");
  report.Add("store.commit_ms_setup", s.commit_ms, "ms");
  report.Add("wire.unattributed_frac",
             cpu_ns_per_op > 0 ? (cpu_ns_per_op - attributed) / cpu_ns_per_op
                               : 0.0,
             "1");
  report.Add("trace.overhead_frac",
             plain > 0 ? (Median(traced_cpu_per_op) - plain) / plain : 0.0,
             "1");
  report.Add("fail_ratio",
             PerOp(static_cast<double>(failed), static_cast<double>(attempted)),
             "1");
  report.notes.push_back("wire_1k traced: " + std::to_string(tracer.kept()) +
                         " spans written to " + span_path);
  std::filesystem::remove(s.device_path);
  return report;
}

}  // namespace pipebench
