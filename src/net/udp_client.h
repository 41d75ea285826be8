/// \file udp_client.h
/// \brief Poll-based broadcast listener: tunes in mid-stream, feeds the
/// existing reconstruction path, reports the same `SessionResult`.
///
/// One socket hosts many *logical sessions* — that is the broadcast
/// semantics of the paper: every listener hears the same datagrams, so N
/// concurrent retrievals cost one wire pass, not N. Each session is the
/// `sim::RetrievalSession` the in-process walk drives, and a block
/// datagram is offered only to the tuned-in sessions of the file its
/// header claims; duplicate/stale/corrupt rejection is the in-process
/// `OfferEx` path, byte for byte (the wire header carries the block's
/// identity + CRC-32C stamp verbatim, and the stamp is required).
///
/// The loop is single-threaded and non-blocking, and it pays one wake-up
/// per batch of a flowing stream. It waits in `poll(2)` for readability,
/// then drains the socket: decode, offer, until `recv` finds the queue
/// empty. A drain that returned more than one block datagram means the
/// stream is flowing, so the listener sleeps `kDrainInterval`, off the
/// socket's wait queue, and drains whatever queued meanwhile. A drain of
/// at most one block sends the loop back to `poll(2)`, so a paced,
/// low-rate stream still costs one `poll(2)` wake-up per datagram. Idle
/// beacons do not count: a paced sender sends each one, header-sized,
/// right behind the block before it, so a block and a beacon in one drain
/// say nothing about the rate.
///
/// Why the sleep helps: on loopback the sender's `sendto(2)` runs the
/// receive path itself, and while the listener waits on the socket's
/// queue, every send also pays the listener's wake-up. Off the queue, an
/// enqueue wakes nobody. On pipebench wire_1k a `poll(2)` wake-up used to
/// come every ~3 datagrams; with the sleep the listener's CPU per
/// datagram about halves, and the server thread's per-slot time falls
/// (docs/ARCHITECTURE.md has the figures).
///
/// The sleep is skipped when the last batch filled more than half of the
/// receive buffer, estimating each datagram's kernel memory as 2 x size
/// + 1 KiB against the SO_RCVBUF the kernel reads back, so large blocks or
/// a small `net.core.rmem_max` cannot overflow the queue during a sleep.
///
/// The loop runs past the last completion until an end-of-stream datagram
/// arrives or the wire stays silent past the idle timeout (UDP may lose
/// the end datagrams too), so datagrams received can always be audited
/// against datagrams sent.
///
/// What a wire listener *cannot* report: `lost_observed` and
/// `stall_slots` need the server's schedule as ground truth (a lost
/// datagram is, to the listener, indistinguishable from an idle slot
/// whose beacon was lost). Those stay 0 in wire results; harnesses that
/// want them compute them from an in-process reference run.
/// `corrupt_detected` counts checksum rejections attributed by the
/// *claimed* header identity — identical to the in-process ground-truth
/// count whenever corruption leaves `file_id` intact, and exactly equal
/// (zero) on pure-erasure channels.

#ifndef BDISK_NET_UDP_CLIENT_H_
#define BDISK_NET_UDP_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/udp_socket.h"
#include "sim/client.h"

namespace bdisk::net {

/// How long the listener sleeps before it drains a flowing stream. 20,
/// 40 and 100 us measured alike on wire_1k; a few tens of us keep a batch
/// well under the receive buffer at loopback rates.
inline constexpr std::chrono::microseconds kDrainInterval{40};

/// \brief One logical retrieval: which file, what geometry, and from
/// which slot the listener counts latency.
struct WireSession {
  broadcast::FileIndex file = 0;
  std::uint32_t m = 0;
  std::uint32_t n = 0;
  /// Slot from which this session listens. Unset = tune in at the first
  /// datagram heard (mid-stream join).
  std::optional<std::uint64_t> start_slot;
};

/// \brief A session's outcome: the in-process result shape plus the
/// resolved tune-in slot.
struct WireSessionResult {
  sim::SessionResult session;
  /// The slot latency is counted from (resolved at tune-in).
  std::uint64_t start_slot = 0;
};

/// \brief Listener knobs.
struct UdpClientOptions {
  std::string bind_host = "127.0.0.1";
  /// 0 = kernel-chosen; read back with bound_port().
  std::uint16_t port = 0;
  /// Payload bytes per block (the program's block size).
  std::size_t block_size = 0;
  /// Kernel receive buffer; a paced broadcast can burst faster than a
  /// test-runner schedules this process.
  int recv_buffer_bytes = 4 << 20;
  /// Give up after this long with no datagram at all.
  int idle_timeout_ms = 5000;
};

/// \brief Run tallies (client-level, across all sessions).
struct UdpClientStats {
  std::uint64_t datagrams = 0;
  std::uint64_t block_datagrams = 0;
  std::uint64_t idle_datagrams = 0;
  std::uint64_t decode_errors = 0;
  /// `poll(2)` calls that returned, readable or timed out.
  std::uint64_t poll_wakeups = 0;
  /// Drains after a `kDrainInterval` sleep (or after a skipped one, when
  /// the last batch filled half the receive buffer).
  std::uint64_t timed_drains = 0;
  /// Timed drains that found the queue empty.
  std::uint64_t empty_drains = 0;
  bool end_seen = false;
  bool timed_out = false;
};

/// \brief The event-loop listener.
class UdpClient {
 public:
  /// Binds the listening socket (port 0 → ephemeral, see bound_port()).
  static Result<UdpClient> Create(const UdpClientOptions& options);

  UdpClient(UdpClient&&) = default;
  UdpClient& operator=(UdpClient&&) = default;

  /// The port the broadcast server should send to.
  std::uint16_t bound_port() const { return socket_.bound_port(); }

  /// Registers a logical session. Call before Run(). The broadcast is
  /// static, so the session pins version 0 and rejects any other
  /// (`SessionResult::version_rejected` counts them).
  void AddSession(const WireSession& session);

  /// Runs the event loop to completion and returns one result per
  /// registered session, in registration order. Adds the datagram,
  /// decode-error and wake-up counts to `obs::GlobalRegistry()` as
  /// `net.listener.*` counters.
  Result<std::vector<WireSessionResult>> Run();

  const UdpClientStats& stats() const { return stats_; }

 private:
  explicit UdpClient(UdpClientOptions options, UdpSocket socket)
      : options_(std::move(options)), socket_(std::move(socket)) {}

  UdpClientOptions options_;
  UdpSocket socket_;
  std::vector<sim::RetrievalSession> sessions_;
  // by_file_[f]: indices into sessions_ of file f's sessions.
  std::vector<std::vector<std::size_t>> by_file_;
  UdpClientStats stats_;
};

}  // namespace bdisk::net

#endif  // BDISK_NET_UDP_CLIENT_H_
