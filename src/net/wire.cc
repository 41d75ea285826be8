#include "net/wire.h"

#include <cstring>

namespace bdisk::net {

namespace {

void PutU64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint64_t GetU64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

void PutU32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint32_t GetU32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  }
  return v;
}

void EncodeHeader(std::uint8_t* out, DatagramType type, std::uint64_t slot,
                  std::uint64_t epoch) {
  std::memcpy(out, kWireMagic, 4);
  out[4] = static_cast<std::uint8_t>(type);
  out[5] = out[6] = out[7] = 0;
  PutU64(out + 8, slot);
  PutU64(out + 16, epoch);
  std::memset(out + 24, 0, ida::kBlockIdentityBytes);
  PutU32(out + 48, 0);
}

}  // namespace

std::vector<std::uint8_t> EncodeBlockDatagram(std::uint64_t slot,
                                              std::uint64_t epoch,
                                              const ida::Block& block) {
  // The payload is appended after the header, not copied over a
  // zero-filled datagram.
  std::vector<std::uint8_t> out;
  out.reserve(kWireHeaderBytes + block.payload.size());
  out.resize(kWireHeaderBytes);
  EncodeHeader(out.data(), DatagramType::kBlock, slot, epoch);
  const auto identity = ida::SerializeIdentity(block.header);
  std::memcpy(out.data() + 24, identity.data(), identity.size());
  PutU32(out.data() + 48, block.header.checksum);
  out.insert(out.end(), block.payload.begin(), block.payload.end());
  return out;
}

std::vector<std::uint8_t> EncodeControlDatagram(DatagramType type,
                                                std::uint64_t slot,
                                                std::uint64_t epoch) {
  std::vector<std::uint8_t> out(kWireHeaderBytes);
  EncodeHeader(out.data(), type, slot, epoch);
  return out;
}

Result<WireDatagram> DecodeDatagram(const std::uint8_t* data,
                                    std::size_t size) {
  if (size < kWireHeaderBytes) {
    return Status::InvalidArgument("wire: datagram shorter than the header (" +
                                   std::to_string(size) + " bytes)");
  }
  WireDatagram d;
  BDISK_ASSIGN_OR_RETURN(d.type, PeekType(data, size));
  d.slot = GetU64(data + 8);
  d.epoch = GetU64(data + 16);
  if (d.type != DatagramType::kBlock) {
    if (size != kWireHeaderBytes) {
      return Status::InvalidArgument(
          "wire: control datagram carries a payload");
    }
    return d;
  }
  std::array<std::uint8_t, ida::kBlockIdentityBytes> identity;
  std::memcpy(identity.data(), data + 24, identity.size());
  ida::DeserializeIdentity(identity, &d.block.header);
  d.block.header.checksum = GetU32(data + 48);
  d.block.payload.assign(data + kWireHeaderBytes, data + size);
  return d;
}

Result<DatagramType> PeekType(const std::uint8_t* data, std::size_t size) {
  if (size < 5 || std::memcmp(data, kWireMagic, 4) != 0) {
    return Status::InvalidArgument("wire: not a broadcast datagram");
  }
  if (data[4] > static_cast<std::uint8_t>(DatagramType::kEnd)) {
    return Status::InvalidArgument("wire: unknown datagram type " +
                                   std::to_string(data[4]));
  }
  return static_cast<DatagramType>(data[4]);
}

Result<std::uint64_t> PeekSlot(const std::uint8_t* data, std::size_t size) {
  if (size < 16 || std::memcmp(data, kWireMagic, 4) != 0) {
    return Status::InvalidArgument("wire: not a broadcast datagram");
  }
  return GetU64(data + 8);
}

}  // namespace bdisk::net
