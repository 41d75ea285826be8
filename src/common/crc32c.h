/// \file crc32c.h
/// \brief CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected) checksums.
///
/// Used to make broadcast blocks self-verifying: a client that receives a
/// block over a corrupting channel recomputes the checksum and discards the
/// block on mismatch. CRC-32C guarantees detection of any single error
/// burst of at most 32 bits; longer random corruption escapes with
/// probability 2^-32.
///
/// Checksums sit on the data path. `ida::VerifyChecksum` recomputes a
/// block's stamp in `BlockStore::StageFile` (every coded block staged),
/// `BlockStore::ReadCodedBlock` (every block read back) and
/// `ReconstructingClient::OfferEx` (every block a client is offered); the
/// servers stamp every block they disperse, and the store's superblock and
/// catalog carry their own CRC. All of them go through `Crc32cExtend`.
///
/// `Crc32cExtend` runs one of two kernels, chosen once per process by a
/// CPU probe. On x86-64 CPUs with SSE4.2 it is the `crc32` instruction over
/// 8-byte words: a buffer of at least three lanes (2184 bytes each, so any
/// 32 KiB block) runs three interleaved chains, ~17 GB/s on a 2.1 GHz
/// Xeon; a shorter one (a 1 KiB payload, the 24 identity bytes) runs one,
/// ~6.3 GB/s. Everywhere else it is the portable bytewise table
/// (`internal::Crc32cExtendPortable`, ~0.3 GB/s). Both compute the same
/// function, so every stamp is byte-identical whichever kernel wrote or
/// checks it.

#ifndef BDISK_COMMON_CRC32C_H_
#define BDISK_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace bdisk {

/// \brief Extends a running CRC-32C with `len` bytes. Start with crc = 0.
std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t len);

/// \brief CRC-32C of one buffer.
inline std::uint32_t Crc32c(const void* data, std::size_t len) {
  return Crc32cExtend(0, data, len);
}

namespace internal {

/// \brief The bytewise table kernel: the only path on CPUs without a CRC
/// instruction, and the reference the tests compare the selected kernel
/// against. Same contract as Crc32cExtend.
std::uint32_t Crc32cExtendPortable(std::uint32_t crc, const void* data,
                                   std::size_t len);

/// \brief Name of the kernel Crc32cExtend runs on this host: "sse4.2" or
/// "portable".
const char* Crc32cKernelName();

/// \brief Lane length of the SSE4.2 kernel, which runs each three
/// consecutive lanes of a buffer as three interleaved crc32 chains: 15 lane
/// triples cover a 32 KiB payload with an 8-byte tail. Public so the tests
/// can aim at the lane boundaries.
inline constexpr std::size_t kCrc32cLaneBytes = 2184;

}  // namespace internal
}  // namespace bdisk

#endif  // BDISK_COMMON_CRC32C_H_
