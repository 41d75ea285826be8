/// \file udp_socket.h
/// \brief Thin RAII wrapper over a non-blocking UDP socket, plus the
/// `WireSink` seam the fault shim plugs into.
///
/// Everything here is deliberately minimal POSIX: IPv4, numeric
/// addresses, non-blocking I/O, `poll(2)` for readiness. The CI harness
/// binds port 0 and reads the kernel-chosen port back
/// (`UdpSocket::bound_port`) so parallel jobs never collide on a fixed
/// port.
///
/// `WireSink` abstracts "where datagrams go" on the send side: the
/// server writes to a sink, and tests interpose `FaultingSocket`
/// (faulting_socket.h) or a capture buffer without touching the
/// scheduling loop.

#ifndef BDISK_NET_UDP_SOCKET_H_
#define BDISK_NET_UDP_SOCKET_H_

#include <netinet/in.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "common/status.h"

namespace bdisk::net {

/// \brief A numeric IPv4 endpoint.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// \brief Parses "host:port" with a numeric IPv4 host (no DNS — the data
/// plane must not block on a resolver). A bare ":port" or "port" means
/// 127.0.0.1.
Result<Endpoint> ParseEndpoint(const std::string& spec);

/// \brief The socket address of a numeric IPv4 endpoint; InvalidArgument
/// when the host is not a numeric IPv4 address.
Result<sockaddr_in> ResolveEndpoint(const Endpoint& endpoint);

/// \brief RAII non-blocking UDP socket.
class UdpSocket {
 public:
  UdpSocket() = default;
  ~UdpSocket();
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Opens the socket and binds it to `endpoint`. Port 0 asks the kernel
  /// for an ephemeral port; read it back with `bound_port()`.
  static Result<UdpSocket> Bind(const Endpoint& endpoint);

  /// Opens an unbound send-only socket.
  static Result<UdpSocket> Open();

  /// The locally bound port (0 if unbound).
  std::uint16_t bound_port() const { return bound_port_; }

  /// Grows the kernel receive buffer (SO_RCVBUF). A broadcast burst can
  /// outrun a poll loop; an undersized buffer turns pacing jitter into
  /// silent datagram loss on loopback.
  Status SetRecvBufferBytes(int bytes);

  /// The kernel receive buffer SO_RCVBUF reads back (Linux doubles the
  /// size asked for, capped by `net.core.rmem_max`).
  Result<int> RecvBufferBytes() const;

  /// Sends one datagram to `dest` (see ResolveEndpoint). A full socket
  /// buffer (EWOULDBLOCK) is reported as kResourceExhausted; the UDP
  /// contract makes dropping legal, so callers may treat it as channel
  /// loss.
  Status SendTo(const sockaddr_in& dest, const std::uint8_t* data,
                std::size_t size);

  /// Receives one datagram into `buf`, non-blocking. Returns the
  /// datagram size, or nullopt when nothing is queued.
  Result<std::optional<std::size_t>> Recv(std::uint8_t* buf,
                                          std::size_t buf_size);

  /// Blocks up to `timeout_ms` for the socket to become readable
  /// (`poll(2)`). Returns true if readable, false on timeout.
  Result<bool> PollReadable(int timeout_ms);

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::uint16_t bound_port_ = 0;
};

/// \brief Where outbound datagrams go. The server's scheduling loop only
/// ever talks to this seam.
class WireSink {
 public:
  virtual ~WireSink() = default;
  virtual Status SendDatagram(const std::uint8_t* data, std::size_t size) = 0;
};

/// \brief The production sink: one socket, one destination endpoint.
/// The endpoint is resolved at the first send, which returns its
/// InvalidArgument if the host is not numeric. The socket stays
/// unconnected: an ICMP port-unreachable from an absent listener would
/// turn later sends on a connected socket into ECONNREFUSED, and a
/// broadcaster must not care whether anyone listens.
class SocketSink : public WireSink {
 public:
  SocketSink(UdpSocket* socket, Endpoint dest)
      : socket_(socket), dest_(std::move(dest)) {}

  Status SendDatagram(const std::uint8_t* data, std::size_t size) override;

  /// Datagrams handed to the socket.
  std::uint64_t sent() const { return sent_; }
  /// Datagrams the kernel refused with a full buffer (legal UDP loss).
  std::uint64_t kernel_dropped() const { return kernel_dropped_; }

 private:
  UdpSocket* socket_;
  Endpoint dest_;
  std::optional<sockaddr_in> dest_addr_;  // dest_, once resolved
  std::uint64_t sent_ = 0;
  std::uint64_t kernel_dropped_ = 0;
};

}  // namespace bdisk::net

#endif  // BDISK_NET_UDP_SOCKET_H_
