/// \file block.h
/// \brief Self-identifying broadcast blocks (paper, Section 2.1).
///
/// "Each block has two identifiers. The first specifies the data item to
/// which the block belongs (e.g., this is page 3 of object Z). The second
/// specifies the sequence number of the block relative to all blocks that
/// make up the data item (e.g., this is block 4 out of 5)."
///
/// We carry both identifiers plus the dispersal geometry (m out of N) so a
/// client can pick the correct inverse transformation without a directory.

#ifndef BDISK_IDA_BLOCK_H_
#define BDISK_IDA_BLOCK_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/default_init_allocator.h"

namespace bdisk::ida {

/// \brief A block's payload bytes.
///
/// `resize(n)` (and the sized constructor) leaves new bytes unwritten,
/// because every producer on the served path overwrites a payload whole
/// right after sizing it: a store read lands in it, a snapshot is
/// synthesized into it, a wire datagram's bytes are copied into it. A
/// value-initializing resize would write each of those bytes twice. A site
/// that needs zeros asks for them: `resize(n, 0)` or `assign(n, 0)`.
using Payload = std::vector<std::uint8_t, DefaultInitAllocator<std::uint8_t>>;

/// Identifier of a broadcast file (data item). File ids are dense small
/// integers assigned by the program builder; kInvalidFileId marks "no file".
using FileId = std::uint32_t;
constexpr FileId kInvalidFileId = 0xFFFFFFFFu;

/// \brief Header carried by every broadcast block, making it
/// self-identifying.
struct BlockHeader {
  /// Which data item this block belongs to.
  FileId file_id = kInvalidFileId;
  /// Index of this block among the N dispersed blocks of the file.
  std::uint32_t block_index = 0;
  /// Number of blocks sufficient for reconstruction (m).
  std::uint32_t reconstruct_threshold = 0;
  /// Total number of dispersed blocks (N).
  std::uint32_t total_blocks = 0;
  /// Version (update generation) of the file this block encodes. Blocks of
  /// different versions must never be combined during reconstruction: IDA's
  /// linear combination only inverts against one consistent snapshot.
  std::uint64_t version = 0;
  /// Integrity checksum over the identity fields above plus the payload
  /// (CRC-32C, normalized so 0 never occurs on a stamped block). 0 means
  /// "unstamped" — blocks built by hand or by the raw codec carry no
  /// checksum; the broadcast server stamps every block it transmits
  /// (StampChecksum) so clients on corrupting channels can discard damaged
  /// blocks instead of silently reconstructing wrong bytes.
  std::uint32_t checksum = 0;

  bool operator==(const BlockHeader&) const = default;

  /// "file=3 block=4/10 (m=5) v2".
  std::string ToString() const;
};

/// \brief One broadcast block: header plus payload bytes.
struct Block {
  BlockHeader header;
  Payload payload;

  bool operator==(const Block&) const = default;
};

/// Serialized size of a header's identity fields (file_id, block_index,
/// reconstruct_threshold, total_blocks, version — the stored checksum is
/// not an identity field).
inline constexpr std::size_t kBlockIdentityBytes = 24;

/// \brief Canonical little-endian serialization of the header identity
/// fields. This single layout defines (a) the checksum coverage beyond the
/// payload and (b) the byte positions fault injectors may damage —
/// SerializeIdentity/DeserializeIdentity round-trip, so corrupting "byte k
/// of the identity" is well-defined without re-encoding the layout at
/// every site.
std::array<std::uint8_t, kBlockIdentityBytes> SerializeIdentity(
    const BlockHeader& header);

/// \brief Inverse of SerializeIdentity; leaves the checksum field alone.
void DeserializeIdentity(
    const std::array<std::uint8_t, kBlockIdentityBytes>& bytes,
    BlockHeader* header);

/// \brief The checksum a stamped `block` must carry: CRC-32C over the
/// header identity fields (SerializeIdentity) and the payload, normalized
/// to be non-zero so the value 0 stays reserved for "unstamped". The
/// stored checksum field itself is excluded from the coverage.
std::uint32_t BlockChecksum(const Block& block);

/// \brief Stamps `block` with its checksum.
inline void StampChecksum(Block* block) {
  block->header.checksum = BlockChecksum(*block);
}

/// \brief Stamps every block of one dispersal — the canonical
/// store-build-time step shared by the static server, the versioned
/// server, and the persistent block store, so "a stamped dispersal" means
/// the same thing at every site.
inline void StampChecksums(std::vector<Block>* blocks) {
  for (Block& block : *blocks) StampChecksum(&block);
}

/// \brief Verdict of VerifyChecksum.
enum class ChecksumState : std::uint8_t {
  /// checksum == 0: the block was never stamped; nothing to verify.
  kUnstamped,
  /// Stamped and the recomputed checksum matches.
  kValid,
  /// Stamped but the contents do not match — the block is corrupt.
  kMismatch,
};

/// \brief Recomputes and compares `block`'s checksum.
ChecksumState VerifyChecksum(const Block& block);


}  // namespace bdisk::ida

#endif  // BDISK_IDA_BLOCK_H_
