#include "net/udp_server.h"

#include <optional>
#include <string>
#include <vector>

#include "net/wire.h"

namespace bdisk::net {

Result<UdpServerStats> ServeBroadcast(sim::BroadcastServer* server,
                                      WireSink* sink,
                                      const UdpServerOptions& options) {
  if (options.horizon == 0) {
    return Status::InvalidArgument("net: serve horizon must be positive");
  }
  if (server->block_size() > kMaxWirePayloadBytes) {
    return Status::InvalidArgument(
        "net: block size " + std::to_string(server->block_size()) +
        " exceeds the single-datagram payload limit " +
        std::to_string(kMaxWirePayloadBytes));
  }
  TokenBucket bucket(options.bandwidth_bytes_per_sec == 0
                         ? 1  // unused; constructed eagerly for simplicity
                         : options.bandwidth_bytes_per_sec,
                     options.burst_bytes);
  const bool paced = options.bandwidth_bytes_per_sec > 0;

  UdpServerStats stats;
  const std::uint64_t start_ns = TokenBucket::MonotonicNowNs();
  for (std::uint64_t t = 0; t < options.horizon; ++t) {
    BDISK_ASSIGN_OR_RETURN(std::optional<ida::Block> block,
                           server->FetchTransmission(t));
    const std::uint64_t epoch = server->schedule().EpochIndexAt(t);
    std::vector<std::uint8_t> datagram;
    if (block.has_value()) {
      datagram = EncodeBlockDatagram(t, epoch, *block);
      ++stats.block_datagrams;
    } else if (options.emit_idle_beacons) {
      datagram = EncodeControlDatagram(DatagramType::kIdle, t, epoch);
      ++stats.idle_datagrams;
    } else {
      ++stats.slots;
      continue;
    }
    if (paced) bucket.Throttle(datagram.size());
    BDISK_RETURN_NOT_OK(sink->SendDatagram(datagram.data(), datagram.size()));
    stats.bytes += datagram.size();
    ++stats.slots;
  }
  const std::uint64_t end_epoch =
      server->schedule().EpochIndexAt(options.horizon - 1);
  for (int i = 0; i < options.end_repeats; ++i) {
    const std::vector<std::uint8_t> datagram =
        EncodeControlDatagram(DatagramType::kEnd, options.horizon, end_epoch);
    if (paced) bucket.Throttle(datagram.size());
    BDISK_RETURN_NOT_OK(sink->SendDatagram(datagram.data(), datagram.size()));
    stats.bytes += datagram.size();
    ++stats.end_datagrams;
  }
  stats.wall_ns = TokenBucket::MonotonicNowNs() - start_ns;
  return stats;
}

}  // namespace bdisk::net
