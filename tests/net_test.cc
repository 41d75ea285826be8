// Network-plane suite: wire datagram format, token-bucket arithmetic on a
// virtual clock, the channel-model-to-datagram fault mapping, and real
// UDP loopback round trips (port 0 binds, so parallel CI jobs never
// collide).
//
// The load-bearing claim: a retrieval served over a real socket is
// *byte-identical* to the in-process byte-level session with the same
// channel spec — same completion slot, same latency, same reconstructed
// bytes. Loss on the wire is the channel model's verdict applied to real
// datagrams (FaultingSocket), not a simulation of one.
//
// Loopback tests must distinguish deliberate (channel) loss from kernel
// loss (receive-buffer overflow under scheduler jitter). Each wire run
// compares datagrams-sent against datagrams-received and retries on
// mismatch; only a clean run's results are asserted on.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "bdisk/flat_builder.h"
#include "faults/channel_model.h"
#include "faults/channel_spec.h"
#include "ida/block.h"
#include "ida/dispersal.h"
#include "net/faulting_socket.h"
#include "net/rate_limiter.h"
#include "net/udp_client.h"
#include "net/udp_server.h"
#include "net/udp_socket.h"
#include "net/wire.h"
#include "obs/registry.h"
#include "sim/client.h"
#include "sim/server.h"

namespace bdisk::net {
namespace {

std::vector<std::uint8_t> RandomBytes(std::size_t size, Rng* rng) {
  std::vector<std::uint8_t> data(size);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng->Uniform(256));
  return data;
}

// ---------------------------------------------------------------------------
// Wire format.

ida::Block MakeBlock(std::uint32_t file, std::uint32_t index,
                     std::size_t payload_bytes) {
  ida::Block b;
  b.header.file_id = file;
  b.header.block_index = index;
  b.header.reconstruct_threshold = 3;
  b.header.total_blocks = 5;
  b.header.version = 2;
  Rng rng(file * 100 + index);
  const std::vector<std::uint8_t> bytes = RandomBytes(payload_bytes, &rng);
  b.payload.assign(bytes.begin(), bytes.end());
  ida::StampChecksum(&b);
  return b;
}

TEST(WireFormatTest, BlockDatagramRoundTripsBytePerfect) {
  const ida::Block block = MakeBlock(4, 2, 96);
  const auto datagram = EncodeBlockDatagram(/*slot=*/1234, /*epoch=*/7,
                                            block);
  EXPECT_EQ(datagram.size(), kWireHeaderBytes + 96);
  auto decoded = DecodeDatagram(datagram.data(), datagram.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->type, DatagramType::kBlock);
  EXPECT_EQ(decoded->slot, 1234u);
  EXPECT_EQ(decoded->epoch, 7u);
  EXPECT_EQ(decoded->block.header.file_id, block.header.file_id);
  EXPECT_EQ(decoded->block.header.block_index, block.header.block_index);
  EXPECT_EQ(decoded->block.header.reconstruct_threshold,
            block.header.reconstruct_threshold);
  EXPECT_EQ(decoded->block.header.total_blocks, block.header.total_blocks);
  EXPECT_EQ(decoded->block.header.version, block.header.version);
  EXPECT_EQ(decoded->block.header.checksum, block.header.checksum);
  EXPECT_EQ(decoded->block.payload, block.payload);
  // The checksum stamp survives the wire: the in-process integrity check
  // accepts the decoded block as-is.
  EXPECT_EQ(ida::VerifyChecksum(decoded->block), ida::ChecksumState::kValid);
}

TEST(WireFormatTest, ControlDatagramsAreHeaderOnly) {
  const auto idle = EncodeControlDatagram(DatagramType::kIdle, 9, 1);
  EXPECT_EQ(idle.size(), kWireHeaderBytes);
  auto decoded = DecodeDatagram(idle.data(), idle.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, DatagramType::kIdle);
  EXPECT_EQ(decoded->slot, 9u);

  const auto end = EncodeControlDatagram(DatagramType::kEnd, 20000, 3);
  auto end_decoded = DecodeDatagram(end.data(), end.size());
  ASSERT_TRUE(end_decoded.ok());
  EXPECT_EQ(end_decoded->type, DatagramType::kEnd);
  EXPECT_EQ(end_decoded->slot, 20000u);

  EXPECT_EQ(*PeekType(end.data(), end.size()), DatagramType::kEnd);
  EXPECT_EQ(*PeekSlot(end.data(), end.size()), 20000u);
}

TEST(WireFormatTest, RejectsForeignAndMangledDatagrams) {
  const ida::Block block = MakeBlock(1, 0, 32);
  auto datagram = EncodeBlockDatagram(5, 0, block);
  // Truncated header.
  EXPECT_FALSE(DecodeDatagram(datagram.data(), 10).ok());
  // Bad magic.
  auto bad_magic = datagram;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(DecodeDatagram(bad_magic.data(), bad_magic.size()).ok());
  EXPECT_FALSE(PeekType(bad_magic.data(), bad_magic.size()).ok());
  // Unknown type byte.
  auto bad_type = datagram;
  bad_type[4] = 9;
  EXPECT_FALSE(DecodeDatagram(bad_type.data(), bad_type.size()).ok());
  // A control datagram carrying a payload.
  auto idle = EncodeControlDatagram(DatagramType::kIdle, 1, 0);
  idle.push_back(0);
  EXPECT_FALSE(DecodeDatagram(idle.data(), idle.size()).ok());
  // Payload corruption is NOT the decoder's job: it decodes fine and the
  // block checksum catches it downstream.
  auto flipped = datagram;
  flipped[kWireHeaderBytes + 3] ^= 0x10;
  auto decoded = DecodeDatagram(flipped.data(), flipped.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(ida::VerifyChecksum(decoded->block), ida::ChecksumState::kMismatch);
}

TEST(WireFormatTest, MutatedDatagramsDecodeTypedAndAdmitOnlyTheOriginal) {
  // A seeded mutation test over real datagrams: the five stamped blocks
  // of one dispersal and both control types, with bytes flipped (mostly in
  // the header), truncated or extended, each decoded from an exact-size
  // copy so the ASan leg sees any read past the end. Every decode is a
  // typed error or a datagram, and a client admits a decoded block only
  // when its identity and payload are an original's (and always when the
  // whole block is).
  constexpr std::uint64_t kSeed = 0x3D15C0DEull;
  constexpr int kCases = 10000;
  constexpr ida::FileId kFile = 2;
  constexpr std::size_t kPayload = 96;
  auto engine = ida::Dispersal::Create(3, 5, kPayload);
  ASSERT_TRUE(engine.ok()) << engine.status();
  Rng rng(kSeed);
  auto blocks = engine->Disperse(kFile, RandomBytes(3 * kPayload, &rng),
                                 /*version=*/4);
  ASSERT_TRUE(blocks.ok()) << blocks.status();
  ida::StampChecksums(&*blocks);
  struct Original {
    std::vector<std::uint8_t> bytes;
    const ida::Block* block = nullptr;  // null for control datagrams
  };
  std::vector<Original> originals;
  for (const ida::Block& block : *blocks) {
    originals.push_back(
        {EncodeBlockDatagram(100 + block.header.block_index, 1, block),
         &block});
  }
  originals.push_back({EncodeControlDatagram(DatagramType::kIdle, 200, 1)});
  originals.push_back({EncodeControlDatagram(DatagramType::kEnd, 300, 1)});

  sim::ReconstructingClient client(kFile, 3, 5, kPayload);
  client.set_require_checksums(true);
  std::uint64_t rejected = 0, controls = 0, refused = 0, admitted = 0;
  for (int c = 0; c < kCases; ++c) {
    const Original& original = originals[rng.Uniform(originals.size())];
    std::vector<std::uint8_t> bytes = original.bytes;
    const std::uint64_t kind = rng.Uniform(4);
    if (kind != 1) {
      for (std::uint64_t flips = 1 + rng.Uniform(4); flips > 0; --flips) {
        const std::size_t at = rng.Uniform(2) == 0
                                   ? rng.Uniform(kWireHeaderBytes)
                                   : rng.Uniform(bytes.size());
        bytes[at] ^= static_cast<std::uint8_t>(1 + rng.Uniform(255));
      }
    }
    if (kind == 1 || kind == 3) {
      bytes.resize(rng.Uniform(bytes.size()));
    } else if (kind == 2) {
      const std::vector<std::uint8_t> tail =
          RandomBytes(1 + rng.Uniform(64), &rng);
      bytes.insert(bytes.end(), tail.begin(), tail.end());
    }
    const std::vector<std::uint8_t> exact(bytes.begin(), bytes.end());
    SCOPED_TRACE("case " + std::to_string(c));
    const auto decoded = DecodeDatagram(exact.data(), exact.size());
    if (!decoded.ok()) {
      ASSERT_TRUE(decoded.status().IsInvalidArgument()) << decoded.status();
      ++rejected;
      continue;
    }
    ASSERT_LE(static_cast<std::uint8_t>(decoded->type),
              static_cast<std::uint8_t>(DatagramType::kEnd));
    if (decoded->type != DatagramType::kBlock) {
      ASSERT_EQ(exact.size(), kWireHeaderBytes);
      ++controls;
      continue;
    }
    const ida::Block& block = decoded->block;
    ASSERT_EQ(block.payload.size(), exact.size() - kWireHeaderBytes);
    const sim::OfferOutcome outcome = client.OfferEx(block, decoded->epoch);
    const bool admits = outcome == sim::OfferOutcome::kAccepted ||
                        outcome == sim::OfferOutcome::kCompleted;
    if (original.block != nullptr && block == *original.block) {
      ASSERT_TRUE(admits) << "an intact block was refused";
    }
    if (!admits) {
      ++refused;
      continue;
    }
    ++admitted;
    ASSERT_NE(original.block, nullptr) << "a control datagram was admitted";
    ASSERT_EQ(ida::SerializeIdentity(block.header),
              ida::SerializeIdentity(original.block->header));
    ASSERT_EQ(block.payload, original.block->payload);
    client.Clear();
  }
  // Every branch was reached, so no assertion above is vacuous.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(controls, 0u);
  EXPECT_GT(refused, 0u);
  EXPECT_GT(admitted, 0u);
}

// ---------------------------------------------------------------------------
// Endpoint parsing.

TEST(EndpointTest, ParsesHostPortAndDefaults) {
  auto full = ParseEndpoint("192.168.1.7:9000");
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full->host, "192.168.1.7");
  EXPECT_EQ(full->port, 9000);

  auto bare_port = ParseEndpoint("4501");
  ASSERT_TRUE(bare_port.ok());
  EXPECT_EQ(bare_port->host, "127.0.0.1");
  EXPECT_EQ(bare_port->port, 4501);

  auto colon_port = ParseEndpoint(":4501");
  ASSERT_TRUE(colon_port.ok());
  EXPECT_EQ(colon_port->host, "127.0.0.1");

  EXPECT_FALSE(ParseEndpoint("localhost:80").ok());  // No DNS.
  EXPECT_FALSE(ParseEndpoint("127.0.0.1:99999").ok());
  EXPECT_FALSE(ParseEndpoint("127.0.0.1:").ok());
  EXPECT_FALSE(ParseEndpoint("").ok());
}

TEST(SocketSinkTest, NonNumericHostFailsTypedAtEverySend) {
  // The sink resolves its endpoint at the first send, not at
  // construction, and a failed resolution is not cached as an address.
  auto sender = UdpSocket::Open();
  ASSERT_TRUE(sender.ok()) << sender.status();
  SocketSink sink(&*sender, Endpoint{"localhost", 9});
  const std::uint8_t bytes[3] = {1, 2, 3};
  for (int i = 0; i < 2; ++i) {
    const Status s = sink.SendDatagram(bytes, sizeof(bytes));
    EXPECT_TRUE(s.IsInvalidArgument()) << s;
  }
  EXPECT_EQ(sink.sent(), 0u);
  EXPECT_EQ(sink.kernel_dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Token bucket on a virtual clock (no sleeping, exact arithmetic).

TEST(TokenBucketTest, StartsFullThenPacesAtRate) {
  // 1000 bytes/s, burst 100 bytes: 1 byte costs 1 ms of credit.
  TokenBucket bucket(1000, 100);
  const std::uint64_t t0 = 5'000'000'000ull;
  // The initial burst goes out immediately.
  EXPECT_EQ(bucket.ReserveAt(t0, 100), t0);
  // The bucket is empty: the next 50 bytes wait 50 ms to be earned.
  EXPECT_EQ(bucket.ReserveAt(t0, 50), t0 + 50'000'000ull);
  // And the 50 after that are granted 50 ms later again.
  EXPECT_EQ(bucket.ReserveAt(t0, 50), t0 + 100'000'000ull);
}

TEST(TokenBucketTest, CreditAccruesWhileIdleUpToBurst) {
  TokenBucket bucket(1000, 100);
  const std::uint64_t t0 = 1'000'000'000ull;
  EXPECT_EQ(bucket.ReserveAt(t0, 100), t0);  // Drain the initial burst.
  // 40 ms idle earns 40 bytes of credit.
  EXPECT_EQ(bucket.ReserveAt(t0 + 40'000'000ull, 40), t0 + 40'000'000ull);
  // A century idle earns only `burst` bytes, never more.
  const std::uint64_t much_later = t0 + 3'000'000'000'000'000ull;
  EXPECT_EQ(bucket.ReserveAt(much_later, 100), much_later);
  EXPECT_EQ(bucket.ReserveAt(much_later, 1), much_later + 1'000'000ull);
}

TEST(TokenBucketTest, GrantedBytesMatchRateOverAnyBusyWindow) {
  // Integer-exactness claim behind the ±5% CI gate: while the bucket
  // never sits full, granted traffic equals rate * elapsed exactly.
  TokenBucket bucket(123456, 4096);
  std::uint64_t now = 0;
  std::uint64_t sent = 0;
  for (int i = 0; i < 10000; ++i) {
    now = bucket.ReserveAt(now, 1000);
    sent += 1000;
  }
  // now == time to transmit (sent - burst) bytes at the rate, within one
  // datagram's rounding.
  const double expect_ns =
      static_cast<double>(sent - bucket.burst_bytes()) * 1e9 / 123456.0;
  EXPECT_NEAR(static_cast<double>(now), expect_ns, 1e9 * 1000.0 / 123456.0);
}

TEST(TokenBucketTest, DefaultBurstIsBounded) {
  TokenBucket small(1000);
  EXPECT_EQ(small.burst_bytes(), 64u * 1024u);  // Floor.
  TokenBucket big(64ull * 1024 * 1024);
  EXPECT_EQ(big.burst_bytes(), 64ull * 1024 * 1024 / 64);  // rate/64.
}

// ---------------------------------------------------------------------------
// FaultingSocket: channel verdicts applied to real datagram bytes.

/// Captures datagrams instead of sending them.
class CaptureSink : public WireSink {
 public:
  Status SendDatagram(const std::uint8_t* data, std::size_t size) override {
    datagrams.emplace_back(data, data + size);
    return Status::OK();
  }
  std::vector<std::vector<std::uint8_t>> datagrams;
};

TEST(FaultingSocketTest, AppliesChannelVerdictsBySlot) {
  auto channel = faults::ParseChannelSpec("gilbert:pgb=0.2,pbg=0.3,seed=5");
  ASSERT_TRUE(channel.ok()) << channel.status();

  CaptureSink capture;
  FaultingSocket faulting(channel->get(), &capture);

  constexpr std::uint64_t kSlots = 400;
  const ida::Block block = MakeBlock(0, 1, 48);
  std::uint64_t expect_forwarded = 0;
  for (std::uint64_t t = 0; t < kSlots; ++t) {
    const auto datagram = EncodeBlockDatagram(t, 0, block);
    ASSERT_TRUE(
        faulting.SendDatagram(datagram.data(), datagram.size()).ok());
    if ((*channel)->FaultAt(t) != faults::FaultType::kLost) {
      ++expect_forwarded;
    }
  }
  // Gilbert-Elliott default loss levels are lg=0, lb=1: pure erasure.
  EXPECT_EQ(faulting.forwarded(), expect_forwarded);
  EXPECT_EQ(faulting.dropped(), kSlots - expect_forwarded);
  EXPECT_EQ(faulting.corrupted(), 0u);
  EXPECT_EQ(capture.datagrams.size(), expect_forwarded);
  EXPECT_GT(faulting.dropped(), 0u) << "spec produced no losses; the test "
                                       "is vacuous — pick a lossier seed";
}

TEST(FaultingSocketTest, CorruptionMatchesInProcessBytes) {
  // A corrupting channel must damage the wire payload with the exact
  // bytes ChannelModel::CorruptBlock produces in-process.
  auto channel =
      faults::ParseChannelSpec("corrupt:p=0.5,seed=3");
  ASSERT_TRUE(channel.ok()) << channel.status();
  CaptureSink capture;
  FaultingSocket faulting(channel->get(), &capture);

  const ida::Block block = MakeBlock(2, 3, 64);
  bool saw_corrupted = false;
  for (std::uint64_t t = 0; t < 64; ++t) {
    const auto datagram = EncodeBlockDatagram(t, 0, block);
    ASSERT_TRUE(
        faulting.SendDatagram(datagram.data(), datagram.size()).ok());
    if ((*channel)->FaultAt(t) != faults::FaultType::kCorrupted) continue;
    saw_corrupted = true;
    ida::Block expect = block;
    (*channel)->CorruptBlock(t, &expect);
    auto wire = DecodeDatagram(capture.datagrams.back().data(),
                               capture.datagrams.back().size());
    ASSERT_TRUE(wire.ok());
    EXPECT_EQ(wire->block.payload, expect.payload);
    EXPECT_EQ(wire->block.header.checksum, expect.header.checksum);
    // And the in-process integrity check rejects it, as OfferEx would.
    EXPECT_NE(ida::VerifyChecksum(wire->block), ida::ChecksumState::kValid);
  }
  EXPECT_TRUE(saw_corrupted);
  EXPECT_GT(faulting.corrupted(), 0u);
  EXPECT_EQ(faulting.dropped(), 0u);  // corrupt: damages, never erases.
}

TEST(FaultingSocketTest, EndDatagramsBypassFaults) {
  // Every end-of-stream repeat carries slot = horizon; a single kLost
  // verdict on that slot must not erase the whole end marker.
  auto channel = faults::ParseChannelSpec("outage:start=0,len=1000000");
  ASSERT_TRUE(channel.ok()) << channel.status();
  ASSERT_EQ((*channel)->FaultAt(100), faults::FaultType::kLost);
  CaptureSink capture;
  FaultingSocket faulting(channel->get(), &capture);
  const auto end = EncodeControlDatagram(DatagramType::kEnd, 100, 0);
  ASSERT_TRUE(faulting.SendDatagram(end.data(), end.size()).ok());
  EXPECT_EQ(capture.datagrams.size(), 1u);
  // An idle beacon on a lost slot IS dropped (it occupies the channel).
  const auto idle = EncodeControlDatagram(DatagramType::kIdle, 100, 0);
  ASSERT_TRUE(faulting.SendDatagram(idle.data(), idle.size()).ok());
  EXPECT_EQ(capture.datagrams.size(), 1u);
  EXPECT_EQ(faulting.dropped(), 1u);
}

// ---------------------------------------------------------------------------
// Real UDP loopback.

broadcast::BroadcastProgram ToyProgram() {
  std::vector<broadcast::FlatFileSpec> files{
      {"A", 5, 10, {}},
      {"B", 3, 6, {}},
  };
  auto p = broadcast::BuildFlatProgram(files, broadcast::FlatLayout::kSpread);
  EXPECT_TRUE(p.ok());
  return *p;
}

constexpr std::size_t kBlockSize = 64;

struct WireRun {
  std::vector<WireSessionResult> results;
  UdpClientStats client_stats;
  UdpServerStats server_stats;
};

// One loopback broadcast pass; `preamble` datagrams go out through the
// same sink ahead of the stream. Returns nullopt when the kernel dropped
// datagrams (receive-buffer overflow — not channel loss): the caller
// retries, because kernel loss is scheduler noise, not semantics.
Result<std::optional<WireRun>> RunWireOnce(
    sim::BroadcastServer* server, const faults::ChannelModel* channel,
    const std::vector<WireSession>& sessions,
    const UdpServerOptions& server_options,
    const std::vector<std::vector<std::uint8_t>>& preamble) {
  UdpClientOptions client_options;
  client_options.block_size = server->block_size();
  client_options.idle_timeout_ms = 10000;
  BDISK_ASSIGN_OR_RETURN(UdpClient client, UdpClient::Create(client_options));
  for (const WireSession& s : sessions) client.AddSession(s);

  BDISK_ASSIGN_OR_RETURN(UdpSocket sender, UdpSocket::Open());
  Endpoint dest;
  dest.port = client.bound_port();
  SocketSink socket_sink(&sender, dest);
  FaultingSocket faulting(channel, &socket_sink);
  WireSink* sink = channel != nullptr
                       ? static_cast<WireSink*>(&faulting)
                       : static_cast<WireSink*>(&socket_sink);

  for (const std::vector<std::uint8_t>& datagram : preamble) {
    BDISK_RETURN_NOT_OK(sink->SendDatagram(datagram.data(), datagram.size()));
  }
  Result<UdpServerStats> server_stats =
      Status::Internal("server thread never ran");
  std::thread server_thread([&] {
    server_stats = ServeBroadcast(server, sink, server_options);
  });
  auto results = client.Run();
  server_thread.join();
  BDISK_RETURN_NOT_OK(results.status());
  BDISK_RETURN_NOT_OK(server_stats.status());

  WireRun run;
  run.results = std::move(*results);
  run.client_stats = client.stats();
  run.server_stats = *server_stats;
  if (run.client_stats.datagrams <
      socket_sink.sent() - (server_options.end_repeats - 1)) {
    // Fewer arrived than were handed to the kernel (all end repeats
    // beyond the first may legitimately go unread: Run() returns at the
    // first one). Kernel loss — not deterministic, retry.
    return std::optional<WireRun>();
  }
  return std::optional<WireRun>(std::move(run));
}

Result<WireRun> RunWireWithRetry(
    sim::BroadcastServer* server, const faults::ChannelModel* channel,
    const std::vector<WireSession>& sessions,
    const UdpServerOptions& server_options,
    const std::vector<std::vector<std::uint8_t>>& preamble = {}) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    BDISK_ASSIGN_OR_RETURN(
        std::optional<WireRun> run,
        RunWireOnce(server, channel, sessions, server_options, preamble));
    if (run.has_value()) return std::move(*run);
  }
  return Status::Internal(
      "loopback kept dropping datagrams in the kernel after 5 attempts");
}

// One session per file of `program` for each start slot.
std::vector<WireSession> SessionsFrom(
    const broadcast::BroadcastProgram& program,
    const std::vector<std::uint64_t>& starts) {
  std::vector<WireSession> sessions;
  for (const std::uint64_t start : starts) {
    for (broadcast::FileIndex f = 0; f < program.file_count(); ++f) {
      WireSession s;
      s.file = f;
      s.m = program.files()[f].m;
      s.n = program.files()[f].n;
      s.start_slot = start;
      sessions.push_back(s);
    }
  }
  return sessions;
}

TEST(UdpClientTest, QueuedBatchWithoutEndTimesOutAfterOneTimedDrain) {
  // K block datagrams are queued before Run() and nothing follows: the
  // first poll(2) drains all K, which makes the stream flowing, so the
  // listener sleeps and drains again (empty) before it polls once more and
  // times out.
  const auto program = ToyProgram();
  Rng rng(3);
  std::vector<std::vector<std::uint8_t>> contents{
      RandomBytes(5 * kBlockSize, &rng), RandomBytes(3 * kBlockSize, &rng)};
  auto server = sim::BroadcastServer::Create(program, contents, kBlockSize);
  ASSERT_TRUE(server.ok()) << server.status();

  UdpClientOptions client_options;
  client_options.block_size = kBlockSize;
  client_options.idle_timeout_ms = 50;
  auto client = UdpClient::Create(client_options);
  ASSERT_TRUE(client.ok()) << client.status();
  const std::vector<WireSession> sessions = SessionsFrom(program, {0, 3});
  for (const WireSession& s : sessions) client->AddSession(s);

  auto sender = UdpSocket::Open();
  ASSERT_TRUE(sender.ok()) << sender.status();
  SocketSink sink(&*sender, Endpoint{"127.0.0.1", client->bound_port()});
  constexpr std::uint64_t kSlots = 12;
  std::uint64_t queued = 0;
  for (std::uint64_t t = 0; t < kSlots; ++t) {
    auto block = server->FetchTransmission(t);
    ASSERT_TRUE(block.ok()) << block.status();
    if (!block->has_value()) continue;
    const auto datagram = EncodeBlockDatagram(t, 0, **block);
    ASSERT_TRUE(sink.SendDatagram(datagram.data(), datagram.size()).ok());
    ++queued;
  }
  ASSERT_GT(queued, 1u);

  obs::MetricRegistry& registry = obs::GlobalRegistry();
  const char* const kCounters[] = {
      "net.listener.datagrams", "net.listener.decode_errors",
      "net.listener.poll_wakeups", "net.listener.timed_drains",
      "net.listener.empty_drains"};
  std::vector<std::uint64_t> before;
  for (const char* name : kCounters) {
    before.push_back(registry.GetCounter(name)->Value());
  }
  auto results = client->Run();
  ASSERT_TRUE(results.ok()) << results.status();
  const UdpClientStats& stats = client->stats();
  EXPECT_TRUE(stats.timed_out);
  EXPECT_FALSE(stats.end_seen);
  EXPECT_EQ(stats.datagrams, queued);
  EXPECT_EQ(stats.block_datagrams, queued);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(stats.poll_wakeups, 2u);
  EXPECT_GE(stats.timed_drains, 1u);
  const std::uint64_t counted[] = {stats.datagrams, stats.decode_errors,
                                   stats.poll_wakeups, stats.timed_drains,
                                   stats.empty_drains};
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(registry.GetCounter(kCounters[i])->Value() - before[i],
              counted[i])
        << kCounters[i];
  }

  // Every session ends as the in-process walk of the same slots does, and
  // every completed one is intact.
  const faults::LosslessChannel no_faults;
  bool any_completed = false;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const WireSessionResult& r = (*results)[i];
    auto reference = sim::RunRetrievalSession(
        *server, no_faults, sessions[i].file, *sessions[i].start_slot, kSlots);
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_EQ(r.session.completed, reference->completed) << "session " << i;
    if (!r.session.completed) continue;
    any_completed = true;
    EXPECT_EQ(r.session.completion_slot, reference->completion_slot)
        << "session " << i;
    EXPECT_EQ(r.session.data, contents[sessions[i].file]) << "session " << i;
  }
  EXPECT_TRUE(any_completed) << "no session completed; lengthen kSlots";
}

TEST(UdpClientTest, ABlockAndItsIdleBeaconStartNoTimedDrain) {
  // A paced sender sends a header-sized idle beacon right behind the block
  // before it, so one drain often holds both: that is not a flowing stream.
  const auto program = ToyProgram();
  UdpClientOptions client_options;
  client_options.block_size = kBlockSize;
  client_options.idle_timeout_ms = 50;
  auto client = UdpClient::Create(client_options);
  ASSERT_TRUE(client.ok()) << client.status();
  for (const WireSession& s : SessionsFrom(program, {0})) {
    client->AddSession(s);
  }
  auto sender = UdpSocket::Open();
  ASSERT_TRUE(sender.ok()) << sender.status();
  SocketSink sink(&*sender, Endpoint{"127.0.0.1", client->bound_port()});
  for (const auto& datagram :
       {EncodeBlockDatagram(0, 0, MakeBlock(0, 0, kBlockSize)),
        EncodeControlDatagram(DatagramType::kIdle, 1, 0)}) {
    ASSERT_TRUE(sink.SendDatagram(datagram.data(), datagram.size()).ok());
  }
  ASSERT_TRUE(client->Run().ok());
  const UdpClientStats& stats = client->stats();
  EXPECT_TRUE(stats.timed_out);
  EXPECT_EQ(stats.datagrams, 2u);
  EXPECT_EQ(stats.idle_datagrams, 1u);
  EXPECT_EQ(stats.poll_wakeups, 2u);
  EXPECT_EQ(stats.timed_drains, 0u);
}

TEST(UdpClientTest, QueuedBurstThenStreamIsByteIdentical) {
  // A burst of another file's blocks is queued before Run(), so the first
  // drain takes the timed path; the served stream that follows must still
  // match the in-process walk on the same channel, session for session.
  const auto program = ToyProgram();
  Rng rng(8);
  std::vector<std::vector<std::uint8_t>> contents{
      RandomBytes(5 * kBlockSize, &rng), RandomBytes(3 * kBlockSize, &rng)};
  auto server = sim::BroadcastServer::Create(program, contents, kBlockSize);
  ASSERT_TRUE(server.ok()) << server.status();
  auto channel = faults::ParseChannelSpec("gilbert:pgb=0.1,pbg=0.25,seed=11");
  ASSERT_TRUE(channel.ok()) << channel.status();
  // The burst rides slot 0, which this channel must not drop.
  ASSERT_NE((*channel)->FaultAt(0), faults::FaultType::kLost);

  std::vector<std::vector<std::uint8_t>> burst;
  for (std::uint32_t i = 0; i < 32; ++i) {
    burst.push_back(EncodeBlockDatagram(0, 0, MakeBlock(7, i, kBlockSize)));
  }
  UdpServerOptions options;
  options.horizon = 512;
  const std::vector<WireSession> sessions =
      SessionsFrom(program, {0, 17, 37, 200});
  auto run = RunWireWithRetry(&*server, channel->get(), sessions, options,
                              burst);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->client_stats.decode_errors, 0u);
  EXPECT_GE(run->client_stats.timed_drains, 1u);
  ASSERT_EQ(run->results.size(), sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const WireSessionResult& wire = run->results[i];
    auto reference = sim::RunRetrievalSession(
        *server, **channel, sessions[i].file, *sessions[i].start_slot,
        options.horizon);
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_EQ(wire.session.completed, reference->completed)
        << "session " << i;
    EXPECT_EQ(wire.session.completion_slot, reference->completion_slot)
        << "session " << i;
    EXPECT_EQ(wire.session.latency, reference->latency) << "session " << i;
    EXPECT_EQ(wire.session.data, reference->data) << "session " << i;
  }
}

TEST(UdpLoopbackTest, LosslessBroadcastReconstructsEveryFile) {
  const auto program = ToyProgram();
  Rng rng(42);
  std::vector<std::vector<std::uint8_t>> contents{
      RandomBytes(5 * kBlockSize, &rng), RandomBytes(3 * kBlockSize, &rng)};
  auto server = sim::BroadcastServer::Create(program, contents, kBlockSize);
  ASSERT_TRUE(server.ok()) << server.status();

  UdpServerOptions options;
  options.horizon = 64;
  std::vector<WireSession> sessions;
  for (broadcast::FileIndex f = 0; f < 2; ++f) {
    const auto& pf = program.files()[f];
    WireSession s;
    s.file = f;
    s.m = pf.m;
    s.n = pf.n;
    s.start_slot = 0;
    sessions.push_back(s);
  }
  auto run = RunWireWithRetry(&*server, nullptr, sessions, options);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->results.size(), 2u);
  for (broadcast::FileIndex f = 0; f < 2; ++f) {
    const auto& r = run->results[f];
    ASSERT_TRUE(r.session.completed) << "file " << f;
    EXPECT_EQ(r.session.data, contents[f]) << "file " << f;
    // The wire run must agree with the in-process session byte for byte.
    faults::LosslessChannel no_faults;
    auto reference = sim::RunRetrievalSession(
        *server, static_cast<const faults::ChannelModel&>(no_faults), f,
                                              /*start_slot=*/0,
                                              /*horizon=*/64);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(r.session.completion_slot, reference->completion_slot);
    EXPECT_EQ(r.session.latency, reference->latency);
    EXPECT_EQ(r.session.data, reference->data);
  }
  EXPECT_TRUE(run->client_stats.end_seen);
  EXPECT_FALSE(run->client_stats.timed_out);
}

TEST(UdpLoopbackTest, MidStreamTuneInUnderGilbertLossIsByteIdentical) {
  // The satellite claim: a client tuning in mid-stream under a
  // FaultingSocket Gilbert-Elliott drop spec reconstructs byte-identically
  // to the in-process run with the same channel seed.
  const auto program = ToyProgram();
  Rng rng(7);
  std::vector<std::vector<std::uint8_t>> contents{
      RandomBytes(5 * kBlockSize, &rng), RandomBytes(3 * kBlockSize, &rng)};
  auto server = sim::BroadcastServer::Create(program, contents, kBlockSize);
  ASSERT_TRUE(server.ok()) << server.status();

  auto channel = faults::ParseChannelSpec("gilbert:pgb=0.1,pbg=0.25,seed=11");
  ASSERT_TRUE(channel.ok()) << channel.status();

  UdpServerOptions options;
  options.horizon = 512;
  // Tune-ins scattered through the stream, including a mid-cycle join.
  const std::vector<std::uint64_t> starts{0, 17, 37, 200};
  std::vector<WireSession> sessions;
  for (const std::uint64_t start : starts) {
    for (broadcast::FileIndex f = 0; f < 2; ++f) {
      const auto& pf = program.files()[f];
      WireSession s;
      s.file = f;
      s.m = pf.m;
      s.n = pf.n;
      s.start_slot = start;
      sessions.push_back(s);
    }
  }
  auto run =
      RunWireWithRetry(&*server, channel->get(), sessions, options);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->results.size(), sessions.size());

  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const auto& spec = sessions[i];
    const auto& wire = run->results[i];
    auto reference = sim::RunRetrievalSession(
        *server, **channel, spec.file, *spec.start_slot, options.horizon);
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_EQ(wire.session.completed, reference->completed)
        << "session " << i;
    if (!reference->completed) continue;
    EXPECT_EQ(wire.session.completion_slot, reference->completion_slot)
        << "session " << i;
    EXPECT_EQ(wire.session.latency, reference->latency) << "session " << i;
    EXPECT_EQ(wire.session.epochs_spanned, reference->epochs_spanned);
    EXPECT_EQ(wire.session.data, reference->data) << "session " << i;
    EXPECT_EQ(wire.session.data, contents[spec.file]) << "session " << i;
  }
  // The channel actually bit: some datagrams were deliberately dropped.
  EXPECT_LT(run->client_stats.block_datagrams + run->client_stats.idle_datagrams,
            options.horizon);
}

TEST(UdpLoopbackTest, ShortPayloadWithValidChecksumIsNeverBuffered) {
  // A genuine block cut short and re-stamped verifies, arrives first, and
  // claims an index its file's session still needs. The session must
  // reject it, and every file must still reconstruct byte-exactly.
  const auto program = ToyProgram();
  Rng rng(5);
  std::vector<std::vector<std::uint8_t>> contents{
      RandomBytes(5 * kBlockSize, &rng), RandomBytes(3 * kBlockSize, &rng)};
  auto server = sim::BroadcastServer::Create(program, contents, kBlockSize);
  ASSERT_TRUE(server.ok()) << server.status();
  auto first = server->FetchTransmission(0);
  ASSERT_TRUE(first.ok() && first->has_value());
  ida::Block short_block = **first;
  short_block.payload.resize(kBlockSize / 2);
  ida::StampChecksum(&short_block);
  ASSERT_EQ(ida::VerifyChecksum(short_block), ida::ChecksumState::kValid);

  UdpServerOptions options;
  options.horizon = 64;
  std::vector<WireSession> sessions;
  for (broadcast::FileIndex f = 0; f < 2; ++f) {
    WireSession s;
    s.file = f;
    s.m = program.files()[f].m;
    s.n = program.files()[f].n;
    s.start_slot = 0;
    sessions.push_back(s);
  }
  auto run = RunWireWithRetry(&*server, nullptr, sessions, options,
                              {EncodeBlockDatagram(0, 0, short_block)});
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->client_stats.block_datagrams,
            run->server_stats.block_datagrams + 1);
  const faults::LosslessChannel no_faults;
  for (broadcast::FileIndex f = 0; f < 2; ++f) {
    const auto& r = run->results[f];
    ASSERT_TRUE(r.session.completed) << "file " << f;
    EXPECT_EQ(r.session.data, contents[f]) << "file " << f;
    auto reference =
        sim::RunRetrievalSession(*server, no_faults, f, 0, options.horizon);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(r.session.completion_slot, reference->completion_slot);
  }
}

TEST(UdpLoopbackTest, ForgedNewerVersionCannotStallASession) {
  // A genuine block re-stamped with a higher version and a fresh checksum
  // arrives first. The broadcast is static, so the listener's session
  // rejects it instead of restarting on it (after which every genuine
  // block would be stale), and every file reconstructs byte-exactly.
  const auto program = ToyProgram();
  Rng rng(6);
  std::vector<std::vector<std::uint8_t>> contents{
      RandomBytes(5 * kBlockSize, &rng), RandomBytes(3 * kBlockSize, &rng)};
  auto server = sim::BroadcastServer::Create(program, contents, kBlockSize);
  ASSERT_TRUE(server.ok()) << server.status();
  auto first = server->FetchTransmission(0);
  ASSERT_TRUE(first.ok() && first->has_value());
  ida::Block forged = **first;
  ++forged.header.version;
  ida::StampChecksum(&forged);
  ASSERT_EQ(ida::VerifyChecksum(forged), ida::ChecksumState::kValid);

  UdpServerOptions options;
  options.horizon = 64;
  std::vector<WireSession> sessions;
  for (broadcast::FileIndex f = 0; f < 2; ++f) {
    WireSession s;
    s.file = f;
    s.m = program.files()[f].m;
    s.n = program.files()[f].n;
    s.start_slot = 0;
    sessions.push_back(s);
  }
  auto run = RunWireWithRetry(&*server, nullptr, sessions, options,
                              {EncodeBlockDatagram(0, 0, forged)});
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->client_stats.block_datagrams,
            run->server_stats.block_datagrams + 1);
  const faults::LosslessChannel no_faults;
  for (broadcast::FileIndex f = 0; f < 2; ++f) {
    const auto& r = run->results[f];
    ASSERT_TRUE(r.session.completed) << "file " << f;
    EXPECT_EQ(r.session.data, contents[f]) << "file " << f;
    EXPECT_EQ(r.session.version_rejected, f == forged.header.file_id ? 1u : 0u)
        << "file " << f;
    auto reference =
        sim::RunRetrievalSession(*server, no_faults, f, 0, options.horizon);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(r.session.completion_slot, reference->completion_slot);
  }
}

TEST(UdpLoopbackTest, SessionsTuneInAtTheFirstDatagramHeard) {
  // A session without a start slot tunes in at the first datagram of any
  // kind: an idle beacon, or another file's block. Period of 8 slots:
  // idle, A, B, A, idle, B, B, A.
  constexpr auto kIdle = broadcast::BroadcastProgram::kIdleSlot;
  std::vector<broadcast::ProgramFile> files(2);
  files[0].name = "A";
  files[0].m = 2;
  files[0].n = 3;
  files[1].name = "B";
  files[1].m = 2;
  files[1].n = 4;
  auto program = broadcast::BroadcastProgram::Create(
      files, {kIdle, 0, 1, 0, kIdle, 1, 1, 0});
  ASSERT_TRUE(program.ok()) << program.status();
  Rng rng(9);
  std::vector<std::vector<std::uint8_t>> contents{
      RandomBytes(2 * kBlockSize, &rng), RandomBytes(2 * kBlockSize, &rng)};
  auto server = sim::BroadcastServer::Create(*program, contents, kBlockSize);
  ASSERT_TRUE(server.ok()) << server.status();

  UdpServerOptions options;
  options.horizon = 64;
  // B starts at 3, between its transmissions at slots 2 and 5.
  std::vector<WireSession> sessions(3);
  sessions[0].file = 0;
  sessions[1].file = 1;
  sessions[2].file = 1;
  sessions[2].start_slot = 3;
  for (WireSession& s : sessions) {
    s.m = files[s.file].m;
    s.n = files[s.file].n;
  }
  // Lossless, the first datagram is slot 0's idle beacon. With slots 0
  // and 1 lost, it is slot 2's block of B.
  struct Case {
    const char* channel;
    std::uint64_t first_heard;
  };
  for (const Case& c : {Case{"lossless", 0}, Case{"outage:start=0,len=2", 2}}) {
    auto channel = faults::ParseChannelSpec(c.channel);
    ASSERT_TRUE(channel.ok()) << channel.status();
    auto run = RunWireWithRetry(&*server, channel->get(), sessions, options);
    ASSERT_TRUE(run.ok()) << run.status();
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const WireSessionResult& r = run->results[i];
      EXPECT_EQ(r.start_slot, sessions[i].start_slot.value_or(c.first_heard))
          << c.channel << " session " << i;
      auto reference = sim::RunRetrievalSession(
          *server, **channel, sessions[i].file, r.start_slot, options.horizon);
      ASSERT_TRUE(reference.ok()) << reference.status();
      ASSERT_TRUE(r.session.completed) << c.channel << " session " << i;
      EXPECT_EQ(r.session.latency, reference->latency)
          << c.channel << " session " << i;
      EXPECT_EQ(r.session.completion_slot, reference->completion_slot)
          << c.channel << " session " << i;
      EXPECT_EQ(r.session.data, contents[sessions[i].file]);
    }
  }
}

}  // namespace
}  // namespace bdisk::net
