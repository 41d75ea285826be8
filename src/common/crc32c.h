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
/// `Crc32cExtend` runs one of three kernels, chosen once per process by a
/// CPU probe; `internal::Crc32cKernels()` lists the ones this host can run.
/// Speeds are for the stamped span of a 32 KiB / 1 KiB block on a 2.1 GHz
/// Xeon, warm.
/// - "vpclmulqdq", on x86-64 CPUs with AVX-512F, VPCLMULQDQ, PCLMULQDQ
///   and SSE4.2: carry-less multiply folding, four 512-bit accumulators
///   over 256 bytes per step, so every buffer of at least 256 bytes (a
///   32 KiB or 1 KiB payload, the store's catalog) folds: ~77 GB/s, and
///   ~25 ns per 1 KiB block. A shorter buffer (the 24 identity bytes, the
///   superblock) runs the SSE4.2 kernel's one chain.
/// - "sse4.2", on other x86-64 CPUs with SSE4.2: the `crc32` instruction
///   over 8-byte words. A buffer of at least three lanes (2184 bytes each,
///   so any 32 KiB block) runs three interleaved chains, ~19 GB/s; a
///   shorter one runs one, ~6.6 GB/s.
/// - "portable" everywhere else: the bytewise table
///   (`internal::Crc32cExtendPortable`, ~0.3 GB/s).
/// All three compute the same function, so every stamp is byte-identical
/// whichever kernel wrote or checks it.

#ifndef BDISK_COMMON_CRC32C_H_
#define BDISK_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <vector>

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
/// instruction, and the reference the tests compare every kernel against.
/// Same contract as Crc32cExtend.
std::uint32_t Crc32cExtendPortable(std::uint32_t crc, const void* data,
                                   std::size_t len);

/// \brief A CRC-32C kernel: its name and its Crc32cExtend.
struct Crc32cKernel {
  const char* name;
  std::uint32_t (*extend)(std::uint32_t crc, const void* data,
                          std::size_t len);
};

/// \brief Every kernel this host can run, portable first and the one
/// Crc32cExtend runs last ("vpclmulqdq", "sse4.2" or "portable"), so the
/// tests and benches cover each.
const std::vector<Crc32cKernel>& Crc32cKernels();

/// \brief Lane length of the SSE4.2 kernel, which runs each three
/// consecutive lanes of a buffer as three interleaved crc32 chains: 15 lane
/// triples cover a 32 KiB payload with an 8-byte tail. Public so the tests
/// can aim at the lane boundaries.
inline constexpr std::size_t kCrc32cLaneBytes = 2184;

/// \brief Step of the VPCLMULQDQ kernel, four 64-byte accumulators: a
/// shorter buffer runs one crc32 chain. Public so the tests can aim at it.
inline constexpr std::size_t kCrc32cFoldBytes = 256;

}  // namespace internal
}  // namespace bdisk

#endif  // BDISK_COMMON_CRC32C_H_
