#include "net/udp_client.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "net/wire.h"

namespace bdisk::net {

Result<UdpClient> UdpClient::Create(const UdpClientOptions& options) {
  if (options.block_size == 0) {
    return Status::InvalidArgument("net: client block_size must be set");
  }
  Endpoint ep;
  ep.host = options.bind_host;
  ep.port = options.port;
  BDISK_ASSIGN_OR_RETURN(UdpSocket socket, UdpSocket::Bind(ep));
  BDISK_RETURN_NOT_OK(socket.SetRecvBufferBytes(options.recv_buffer_bytes));
  return UdpClient(options, std::move(socket));
}

void UdpClient::AddSession(const WireSession& session) {
  by_file_.resize(std::max(by_file_.size(), std::size_t{session.file} + 1));
  by_file_[session.file].push_back(sessions_.size());
  sessions_.emplace_back(session.file, session.m, session.n,
                         options_.block_size, session.start_slot);
}

Result<std::vector<WireSessionResult>> UdpClient::Run() {
  // Sessions still to tune in, the earliest start at the back: each
  // datagram tunes in from the back until it meets a start it has not
  // reached. A mid-stream joiner counts as start 0 until it tunes in.
  std::vector<std::size_t> waiting(sessions_.size());
  std::iota(waiting.begin(), waiting.end(), std::size_t{0});
  std::sort(waiting.begin(), waiting.end(),
            [this](std::size_t a, std::size_t b) {
              return sessions_[a].start_slot() > sessions_[b].start_slot();
            });
  std::vector<std::uint8_t> buf(65536);
  while (!stats_.end_seen) {
    BDISK_ASSIGN_OR_RETURN(bool readable,
                           socket_.PollReadable(options_.idle_timeout_ms));
    if (!readable) {
      stats_.timed_out = true;
      break;
    }
    // Drain everything queued before polling again.
    for (;;) {
      BDISK_ASSIGN_OR_RETURN(std::optional<std::size_t> n,
                             socket_.Recv(buf.data(), buf.size()));
      if (!n.has_value()) break;
      ++stats_.datagrams;
      auto decoded = DecodeDatagram(buf.data(), *n);
      if (!decoded.ok()) {
        // Not our traffic (or mangled beyond the header): ignore. Payload
        // corruption is NOT caught here — it rides to OfferEx's checksum.
        ++stats_.decode_errors;
        continue;
      }
      const WireDatagram& d = *decoded;
      if (d.type == DatagramType::kEnd) {
        stats_.end_seen = true;
        break;
      }
      // Any block or idle beacon tells the broadcast clock.
      while (!waiting.empty() && sessions_[waiting.back()].TuneIn(d.slot)) {
        waiting.pop_back();
      }
      if (d.type == DatagramType::kIdle) {
        ++stats_.idle_datagrams;
        continue;
      }
      ++stats_.block_datagrams;
      const ida::FileId claimed = d.block.header.file_id;
      if (claimed >= by_file_.size()) continue;
      for (const std::size_t i : by_file_[claimed]) {
        sim::RetrievalSession& s = sessions_[i];
        if (s.listening() && s.Offer(d.slot, d.block, d.epoch) ==
                                 sim::OfferOutcome::kChecksumMismatch) {
          // Attribution by claimed identity — see the header comment.
          s.CountCorrupt();
        }
      }
    }
  }
  std::vector<WireSessionResult> results;
  results.reserve(sessions_.size());
  for (sim::RetrievalSession& s : sessions_) {
    BDISK_ASSIGN_OR_RETURN(sim::SessionResult session, s.Finish());
    results.push_back(WireSessionResult{std::move(session), s.start_slot()});
  }
  return results;
}

}  // namespace bdisk::net
