/// \file client.h
/// \brief Byte-level client: collects self-identifying coded blocks off the
/// broadcast channel and reconstructs the file with IDA.
///
/// Mirrors the paper's client model: no uplink, bounded buffer (it keeps at
/// most m blocks — IDA needs no more), blocks identified purely by their
/// headers ("this is block 4 out of 10 of object Z").
///
/// The collection is assembled in place, and a row is zero-filled only if
/// it may stay erased. A client owns one arena, reserved at m × block_size
/// bytes at the first admitted data block. A data block (index < m) is its
/// slice of the file, so it goes straight to its offset: a row past the
/// arena's end is appended after zero-filling only the rows it skips, and
/// a row inside the arena overwrites one of those zeroed gaps. Every row
/// below the arena's end is therefore held or zero. A parity block goes to
/// a spare area of at most min(n − m, m) rows. Reconstruct() zero-fills
/// the rows past the last one written, solves only the erased data rows
/// (ida::Dispersal::SolveErasures) and hands the arena over as the file.

#ifndef BDISK_SIM_CLIENT_H_
#define BDISK_SIM_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "faults/channel_model.h"
#include "ida/block.h"
#include "ida/dispersal.h"
#include "sim/server.h"

namespace bdisk::sim {

/// \brief Why an offered block was (or was not) admitted into the
/// collection buffer. Every rejection is explicit and counted — a client on
/// a faulty channel must never silently treat an unusable block as
/// progress.
enum class OfferOutcome : std::uint8_t {
  /// Admitted; more blocks are still needed.
  kAccepted,
  /// Admitted, and the client now holds m distinct blocks.
  kCompleted,
  /// Ignored: the client already holds m distinct blocks.
  kAlreadyComplete,
  /// Ignored: the block belongs to a different file.
  kWrongFile,
  /// Rejected: geometry does not match (m, n, index >= n, payload size).
  kMalformedHeader,
  /// Rejected: a block with this index is already buffered (duplicates
  /// carry no new information under IDA).
  kDuplicate,
  /// Rejected: the block's version predates the version being collected —
  /// blocks of different update generations must never be combined.
  kStaleVersion,
  /// Rejected: the client pins one version (a static broadcast's is 0)
  /// and the block carries another. Nothing is restarted: a copy of a
  /// genuine block re-stamped with a higher version cannot make the client
  /// drop its collection and then refuse every genuine block as stale.
  kVersionMismatch,
  /// Rejected: the block is stamped and its checksum does not match, or
  /// checksums are required and it is unstamped — the payload (or header)
  /// was corrupted in transit.
  kChecksumMismatch,
};

/// True for the two outcomes that leave the client reconstructable.
inline bool OfferSatisfied(OfferOutcome outcome) {
  return outcome == OfferOutcome::kCompleted ||
         outcome == OfferOutcome::kAlreadyComplete;
}

/// \brief Incremental block collector + reconstructor for one file.
class ReconstructingClient {
 public:
  /// \param file        the file (program index / ida::FileId) to retrieve.
  /// \param m           reconstruction threshold.
  /// \param n           total dispersed blocks (for header validation).
  /// \param block_size  payload bytes per block.
  ReconstructingClient(ida::FileId file, std::uint32_t m, std::uint32_t n,
                       std::size_t block_size);

  /// Requires every admitted block to carry a valid checksum (the
  /// broadcast server stamps all transmissions). Default off so
  /// hand-built, unstamped blocks remain offerable; stamped-but-mismatched
  /// blocks are rejected in either mode.
  void set_require_checksums(bool require) { require_checksums_ = require; }

  /// Admits only blocks of `version` and rejects any other, newer or older,
  /// as kVersionMismatch; for a broadcast whose files are never updated,
  /// which pins version 0. Unpinned (the default), the newest version
  /// heard wins, as described at OfferEx. Call before the first offer.
  void pin_version(std::uint64_t version);

  /// Offers a received block and reports exactly what happened to it.
  ///
  /// `epoch` keys the block by the program epoch it was heard under
  /// (sim/epoch.h). Because hot swaps preserve dispersal geometry and
  /// contents, blocks from different epochs are mutually reconstructing —
  /// a stale-*epoch* block is deliberately NOT an error; the client keeps
  /// collecting across a swap and Reconstruct() is bit-identical to a
  /// single-epoch retrieval. Stale-*version* blocks (an older update
  /// generation than the one being collected) are rejected, and a *newer*
  /// version discards the stale partial collection and restarts, exactly
  /// like the versioned server's update semantics — unless the client pins
  /// a version (pin_version), which rejects every other one.
  OfferOutcome OfferEx(const ida::Block& block, std::uint64_t epoch = 0);

  /// True iff m distinct blocks have been collected.
  bool CanReconstruct() const { return distinct_ >= m_; }

  /// Number of distinct blocks collected so far.
  std::uint32_t distinct_blocks() const { return distinct_; }

  /// Number of distinct program epochs among the collected blocks.
  std::uint32_t EpochsSpanned() const;

  /// Reconstructs the file. Fails with DataLoss before CanReconstruct().
  ///
  /// Solves the erased data rows in the arena and moves the arena out as
  /// the result, with no copy, releasing the spares too. The client is
  /// then empty, as after Clear(): a second call fails with DataLoss, the
  /// counters persist, and the client may collect (into a fresh arena) and
  /// reconstruct another file.
  Result<std::vector<std::uint8_t>> Reconstruct();

  /// Drops all collected blocks (for reuse; rejection counters persist,
  /// and so does a pinned version). The arena is emptied, and it and the
  /// spare area keep their capacity.
  void Clear();

  /// Duplicate-index blocks rejected so far.
  std::uint64_t duplicates_rejected() const { return duplicates_rejected_; }
  /// Stale-version blocks rejected so far.
  std::uint64_t stale_rejected() const { return stale_rejected_; }
  /// Checksum-mismatch blocks rejected so far.
  std::uint64_t checksum_rejected() const { return checksum_rejected_; }
  /// Blocks of a version other than the pinned one rejected so far.
  std::uint64_t version_rejected() const { return version_rejected_; }
  /// Partial collections discarded because a newer version appeared.
  std::uint32_t restarts() const { return restarts_; }
  /// The file this client collects.
  ida::FileId file() const { return file_; }

 private:
  ida::FileId file_;
  std::uint32_t m_;
  std::uint32_t n_;
  ida::Dispersal engine_;
  std::vector<bool> have_;
  std::uint32_t distinct_ = 0;
  // The file being assembled, up to m rows of block_size bytes: it ends
  // after the highest data row received, and each row below its end holds
  // its block or zeros. Reconstruct extends it to m rows.
  std::vector<std::uint8_t> arena_;
  // Parity blocks, one block_size row each in arrival order (never
  // zero-filled; allocated at the first admitted parity block and released
  // at the hand-over), and the block index of each row.
  std::unique_ptr<std::uint8_t[]> spares_;
  std::vector<std::uint32_t> spare_rows_;
  // Epoch under which each collected block was heard.
  std::vector<std::uint64_t> block_epochs_;
  // Version pinned by the first admitted block (collection invariant:
  // every collected block carries this version), or by pin_version.
  std::optional<std::uint64_t> version_;
  // Set by pin_version: version_ never changes, and Clear keeps it.
  bool version_pinned_ = false;
  bool require_checksums_ = false;
  std::uint64_t duplicates_rejected_ = 0;
  std::uint64_t stale_rejected_ = 0;
  std::uint64_t checksum_rejected_ = 0;
  std::uint64_t version_rejected_ = 0;
  std::uint32_t restarts_ = 0;
};

/// \brief Outcome of a byte-level retrieval session.
struct SessionResult {
  bool completed = false;
  std::uint64_t completion_slot = 0;
  std::uint64_t latency = 0;
  /// Distinct program epochs the collected blocks were heard under (1 for
  /// a single-program server; >= 2 when the retrieval spanned a hot swap).
  std::uint32_t epochs_spanned = 0;
  /// Transmissions of the requested file erased by the channel.
  std::uint32_t lost_observed = 0;
  /// Transmissions of the requested file corrupted by the channel and
  /// rejected by the client (checksum or header validation).
  std::uint32_t corrupt_detected = 0;
  /// Blocks of the session's file rejected for a version other than the
  /// pinned one (ReconstructingClient::pin_version).
  std::uint32_t version_rejected = 0;
  /// Latency minus the lossless-channel latency of the same session
  /// (valid when completed).
  std::uint64_t stall_slots = 0;
  std::vector<std::uint8_t> data;
};

/// \brief One retrieval as a client runs it: tune in, offer each block
/// heard, record completion and latency, reconstruct. The in-process walk
/// and the UDP listener (net/udp_client.h) both drive it, and attribute
/// faults on their own evidence. Checksums are required: every server
/// stamps its blocks, so an unstamped block can only be damage.
class RetrievalSession {
 public:
  /// `start_slot` unset: tune in at the first slot heard (mid-stream join).
  RetrievalSession(broadcast::FileIndex file, std::uint32_t m,
                   std::uint32_t n, std::size_t block_size,
                   std::optional<std::uint64_t> start_slot);

  /// Admits only blocks of `version` (ReconstructingClient::pin_version):
  /// a session of a static broadcast pins 0.
  void pin_version(std::uint64_t version) { client_.pin_version(version); }

  /// Hears `slot` (an idle beacon or any file's block): the first slot at
  /// or after the start slot tunes in. Returns whether it is tuned in.
  bool TuneIn(std::uint64_t slot);
  /// Tuned in and not complete.
  bool listening() const { return tuned_in_ && !result_.completed; }
  /// Offers a block heard at `slot`; the first satisfied outcome completes
  /// the session there.
  OfferOutcome Offer(std::uint64_t slot, const ida::Block& block,
                     std::uint64_t epoch);
  void CountLost() { ++result_.lost_observed; }
  void CountCorrupt() { ++result_.corrupt_detected; }

  /// The slot latency counts from (a joiner's is 0 until it tunes in).
  std::uint64_t start_slot() const { return start_slot_.value_or(0); }
  const ReconstructingClient& client() const { return client_; }
  /// The result, with the data reconstructed when complete. Hands the
  /// client's file over (ReconstructingClient::Reconstruct), so call it
  /// once.
  Result<SessionResult> Finish();

 private:
  ReconstructingClient client_;
  std::optional<std::uint64_t> start_slot_;
  bool tuned_in_ = false;
  SessionResult result_;
};

/// \brief The in-process walk behind RunRetrievalSession and
/// RunVersionedRetrieval: from the session's start slot until it completes
/// or `horizon`, fetch each slot's transmission (nullopt when idle), apply
/// `channel`'s verdict and offer what arrives under the slot's epoch in
/// `epochs` (nullptr: one program, epoch 0). Losses and corruptions of the
/// session's file are counted by the server's identity of the block
/// (ground truth), not by its possibly damaged header.
Result<SessionResult> WalkRetrieval(
    const std::function<Result<std::optional<ida::Block>>(std::uint64_t)>&
        fetch,
    const EpochSchedule* epochs, const faults::ChannelModel& channel,
    std::uint64_t horizon, RetrievalSession* session);

/// \brief Runs a full retrieval session: from `start_slot`, listen to
/// `server` (in-memory or disk-backed) through `channel`'s deterministic
/// fault trace until the file is reconstructable or `horizon` is reached,
/// then reconstruct. Lost slots never reach the client; corrupted slots
/// deliver a damaged copy of the block, which the client must detect (the
/// server stamps checksums, and the session requires them) and discard.
/// Because the trace is random-access, no replay from slot 0 is needed —
/// the realization is identical no matter where (or on how many threads)
/// sessions start. A disk-backed server's read failure is returned. The
/// server's files are never updated, so the session pins version 0.
Result<SessionResult> RunRetrievalSession(const BroadcastServer& server,
                                          const faults::ChannelModel& channel,
                                          broadcast::FileIndex file,
                                          std::uint64_t start_slot,
                                          std::uint64_t horizon);

}  // namespace bdisk::sim

#endif  // BDISK_SIM_CLIENT_H_
