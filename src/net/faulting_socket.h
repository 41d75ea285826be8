/// \file faulting_socket.h
/// \brief Maps a `src/faults/` channel model onto real datagrams.
///
/// The in-process walk reads each slot's verdict off the channel model
/// through a `faults::FaultCursor`. This sink applies the *same*
/// pure-by-slot verdicts, read through its own cursor, to the wire: a
/// kLost slot's datagram is dropped before it reaches the socket, a
/// kCorrupted slot's block is decoded, damaged through
/// `ChannelModel::CorruptBlock` (the exact bytes the in-process path
/// would damage), re-encoded, and forwarded. Because the model is a pure
/// function of the slot, a wire run under a faulting sink sees
/// bit-for-bit the channel of an in-process run with the same spec — the
/// basis for the byte-identical loopback tests.
///
/// Two mapping details:
///  - Idle beacons occupy a slot, so a kLost verdict drops them too; but
///    there is nothing to corrupt in a header-only datagram, so
///    kCorrupted forwards a beacon unchanged.
///  - End-of-stream datagrams bypass faults entirely. They are harness
///    control (every repeat carries slot = horizon, so one lost slot
///    verdict would erase all of them), not channel traffic.

#ifndef BDISK_NET_FAULTING_SOCKET_H_
#define BDISK_NET_FAULTING_SOCKET_H_

#include <cstdint>

#include "faults/channel_model.h"
#include "net/udp_socket.h"

namespace bdisk::net {

/// \brief A WireSink decorator that injects channel faults by slot.
/// `channel` and `next` are not owned and must outlive the shim. Its
/// cursor and counters are unsynchronized: one thread sends through it.
class FaultingSocket : public WireSink {
 public:
  FaultingSocket(const faults::ChannelModel* channel, WireSink* next)
      : channel_(channel), faults_(channel), next_(next) {}

  Status SendDatagram(const std::uint8_t* data, std::size_t size) override;

  /// Datagrams swallowed by kLost verdicts.
  std::uint64_t dropped() const { return dropped_; }
  /// Block datagrams damaged by kCorrupted verdicts.
  std::uint64_t corrupted() const { return corrupted_; }
  /// Datagrams passed through (including corrupted ones).
  std::uint64_t forwarded() const { return forwarded_; }

 private:
  const faults::ChannelModel* channel_;
  faults::FaultCursor faults_;
  WireSink* next_;
  std::uint64_t dropped_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t forwarded_ = 0;
};

}  // namespace bdisk::net

#endif  // BDISK_NET_FAULTING_SOCKET_H_
