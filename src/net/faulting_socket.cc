#include "net/faulting_socket.h"

#include <vector>

#include "net/wire.h"

namespace bdisk::net {

Status FaultingSocket::SendDatagram(const std::uint8_t* data,
                                    std::size_t size) {
  BDISK_ASSIGN_OR_RETURN(DatagramType type, PeekType(data, size));
  if (type == DatagramType::kEnd) {
    ++forwarded_;
    return next_->SendDatagram(data, size);
  }
  BDISK_ASSIGN_OR_RETURN(std::uint64_t slot, PeekSlot(data, size));
  const faults::FaultType fault = faults_.At(slot);
  if (fault == faults::FaultType::kLost) {
    ++dropped_;
    return Status::OK();
  }
  if (fault == faults::FaultType::kCorrupted &&
      type == DatagramType::kBlock) {
    BDISK_ASSIGN_OR_RETURN(WireDatagram d, DecodeDatagram(data, size));
    channel_->CorruptBlock(slot, &d.block);
    const std::vector<std::uint8_t> damaged =
        EncodeBlockDatagram(d.slot, d.epoch, d.block);
    ++corrupted_;
    ++forwarded_;
    return next_->SendDatagram(damaged.data(), damaged.size());
  }
  ++forwarded_;
  return next_->SendDatagram(data, size);
}

}  // namespace bdisk::net
