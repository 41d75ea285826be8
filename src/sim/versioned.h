/// \file versioned.h
/// \brief Versioned broadcast: updates and absolute temporal consistency.
///
/// The paper's motivating constraint is *absolute temporal consistency*
/// (Section 1): "the data item in an AWACS recording the position of an
/// aircraft with a velocity of 900 km/hour may be subject to an absolute
/// temporal consistency constraint of 400 msecs". The server therefore
/// re-disperses items as they are updated — and that interacts with IDA
/// in a subtle way: coded blocks are linear combinations of one snapshot,
/// so blocks of *different versions must never be combined*. The data-cycle
/// rotation that makes AIDA work spreads a version's blocks across
/// periods, so a client that straddles an update boundary must discard its
/// partial collection and restart.
///
/// This module provides a version-aware server (re-disperses per update
/// interval, stamps headers), a version-aware client session (restarts on
/// newer versions, never mixes), and the resulting metrics: retrieval
/// latency, number of restarts, and *data age* at completion — the
/// quantity a temporal-consistency constraint bounds.
///
/// Retention. A store-backed server keeps at most kRetainedVersions
/// versions of each file on disk. The commit that adds (f, v) also stages
/// the erase of f's other committed versions beyond the kRetainedVersions
/// nearest v (v itself included): farthest from v first, the older one on
/// a tie. The rule reads only the committed catalog. The catalog thus
/// holds at most files x kRetainedVersions entries, a version commit
/// costs one version's work rather than the file history's, and the
/// device space a server needs (one more version per file than the
/// window, for the one being staged, plus catalog slack) does not grow
/// with the history. Fetches stay random-access: a fetch of an evicted
/// version disperses it again, which yields identical blocks (contents
/// and dispersal are deterministic). The in-memory cache is not windowed.

#ifndef BDISK_SIM_VERSIONED_H_
#define BDISK_SIM_VERSIONED_H_

#include <cstdint>
#include <map>
#include <vector>

#include "bdisk/program.h"
#include "common/status.h"
#include "faults/channel_model.h"
#include "ida/dispersal.h"
#include "store/block_store.h"

namespace bdisk::sim {

/// \brief Options for the versioned server.
struct VersionedServerOptions {
  /// Payload bytes per block.
  std::size_t block_size = 64;
  /// Per-file update interval in slots; 0 means the file never updates.
  /// Shorter than the file's retrieval time makes it unretrievable (the
  /// temporal-consistency feasibility constraint).
  std::vector<std::uint64_t> update_interval_slots;
  /// Seed for the deterministic per-version synthetic contents.
  std::uint64_t content_seed = 1;
  /// Optional persistent backing (not owned; must outlive the server).
  /// When set, every (file, version) dispersal is committed to the store
  /// on first transmission — one generation per version, which also
  /// retires versions outside the retention window, exercising the
  /// crash-safe swap under natural update churn — and transmissions are
  /// served from disk through the checksum-verified read path.
  store::BlockStore* store = nullptr;
};

/// \brief Broadcast server whose files are updated over time; every
/// transmission carries the *current* version's coded block.
class VersionedBroadcastServer {
 public:
  /// Versions of one file a store-backed server keeps committed.
  static constexpr std::size_t kRetainedVersions = 2;

  static Result<VersionedBroadcastServer> Create(
      broadcast::BroadcastProgram program, VersionedServerOptions options);

  /// Version of `file` current at `slot` (slot / update interval).
  std::uint64_t VersionAt(broadcast::FileIndex file, std::uint64_t slot) const;

  /// First slot at which `version` of `file` became current.
  std::uint64_t VersionStartSlot(broadcast::FileIndex file,
                                 std::uint64_t version) const;

  /// Ground-truth contents of `file` at `version`: m x block_size bytes
  /// from an xoshiro256** stream seeded by (content_seed, file, version),
  /// eight bytes per draw, each draw stored little-endian (a short tail
  /// keeps the low bytes of one more draw). Stands in for a database
  /// update; tests and benchmarks check byte-exactness against it.
  ///
  /// Cost: one allocation of m x block_size zeroed bytes and one pass of
  /// sim::SynthesizeRows over them — on an AVX2 host, eight generator
  /// lanes jumped to eighths of the stream (sim/contents.h), ~2.3 us per
  /// 32 KiB row; serially ~4.7 us. The commit path writes the same bytes
  /// straight into a dispersal's data payloads instead (BuildVersion), so
  /// it never calls this.
  std::vector<std::uint8_t> ContentsOf(broadcast::FileIndex file,
                                       std::uint64_t version) const;

  /// The coded block transmitted at `slot` (nullopt when idle).
  Result<std::optional<ida::Block>> FetchTransmission(std::uint64_t t) const;
  /// Old name of FetchTransmission, kept for existing callers.
  auto TransmissionAt(std::uint64_t t) const { return FetchTransmission(t); }

  const broadcast::BroadcastProgram& program() const { return program_; }
  std::size_t block_size() const { return options_.block_size; }

 private:
  VersionedBroadcastServer(broadcast::BroadcastProgram program,
                           VersionedServerOptions options)
      : program_(std::move(program)), options_(std::move(options)) {}

  /// Seed of `file`'s snapshot at `version`.
  std::uint64_t ContentSeed(broadcast::FileIndex file,
                            std::uint64_t version) const;

  /// The stamped blocks of `file` at `version`, in one pass: the snapshot
  /// is synthesized into the data payloads, the parity rows are encoded
  /// in place (ida::Dispersal::DisperseInPlace), then every block is
  /// stamped.
  Result<std::vector<ida::Block>> BuildVersion(broadcast::FileIndex file,
                                               std::uint64_t version) const;

  broadcast::BroadcastProgram program_;
  VersionedServerOptions options_;
  std::vector<ida::Dispersal> engines_;
  // Cache of dispersed blocks keyed by (file, version).
  mutable std::map<std::pair<broadcast::FileIndex, std::uint64_t>,
                   std::vector<ida::Block>>
      coded_;
};

/// \brief Outcome of a version-aware retrieval session.
struct VersionedSessionResult {
  bool completed = false;
  std::uint64_t completion_slot = 0;
  /// Start-to-completion, inclusive.
  std::uint64_t latency = 0;
  /// The version actually retrieved.
  std::uint64_t version = 0;
  /// Slots between the retrieved version's creation and completion — the
  /// quantity an absolute temporal-consistency constraint bounds.
  std::uint64_t data_age = 0;
  /// Partial collections discarded because a newer version appeared.
  std::uint32_t restarts = 0;
  std::vector<std::uint8_t> data;
};

/// \brief Runs a version-aware retrieval from slot `start` on
/// RunRetrievalSession's walk: the client collects blocks of the newest
/// version heard through `channel` (its version rule discards a stale
/// partial collection and rejects stale stragglers) and reconstructs at m
/// distinct blocks of one version. Corrupted slots deliver a damaged copy,
/// which the client's required checksum check discards.
Result<VersionedSessionResult> RunVersionedRetrieval(
    const VersionedBroadcastServer& server,
    const faults::ChannelModel& channel, broadcast::FileIndex file,
    std::uint64_t start, std::uint64_t horizon);

}  // namespace bdisk::sim

#endif  // BDISK_SIM_VERSIONED_H_
