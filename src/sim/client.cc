#include "sim/client.h"

#include "common/check.h"
#include "sim/simulation.h"

namespace bdisk::sim {

ReconstructingClient::ReconstructingClient(ida::FileId file, std::uint32_t m,
                                           std::uint32_t n,
                                           std::size_t block_size)
    : file_(file), m_(m), n_(n),
      engine_([&] {
        auto e = ida::Dispersal::Create(m, n, block_size);
        BDISK_CHECK(e.ok());
        return std::move(*e);
      }()),
      have_(n, false) {
  buffer_.reserve(m);
}

OfferOutcome ReconstructingClient::OfferEx(const ida::Block& block,
                                           std::uint64_t epoch) {
  // The cheap file filter runs before the O(payload) checksum: on a
  // broadcast channel most offered blocks belong to other files and one
  // uint32 compare discards them. Filtering on the (unverified) file_id
  // is safe — a block whose damaged file_id points elsewhere is discarded
  // either way, and one damaged *into* our id still hits the integrity
  // check below before any other header field is trusted.
  if (block.header.file_id != file_) return OfferOutcome::kWrongFile;
  const ida::ChecksumState checksum = ida::VerifyChecksum(block);
  if (checksum == ida::ChecksumState::kMismatch ||
      (require_checksums_ && checksum == ida::ChecksumState::kUnstamped)) {
    ++checksum_rejected_;
    return OfferOutcome::kChecksumMismatch;
  }
  // A checksum covers whatever payload arrived, so a short or long one
  // can verify; it must not reach the buffer, where Reconstruct would fail.
  if (block.header.reconstruct_threshold != m_ ||
      block.header.total_blocks != n_ || block.header.block_index >= n_ ||
      block.payload.size() != engine_.block_size()) {
    return OfferOutcome::kMalformedHeader;
  }
  if (CanReconstruct()) return OfferOutcome::kAlreadyComplete;
  if (version_.has_value() && block.header.version != *version_) {
    if (block.header.version < *version_) {
      // An older snapshot's block: IDA's linear combination only inverts
      // against one consistent snapshot, so it can never be combined with
      // the buffered ones. Reject explicitly instead of letting
      // Reconstruct() fail later (or worse, silently overwriting).
      ++stale_rejected_;
      return OfferOutcome::kStaleVersion;
    }
    // A newer snapshot appeared: the buffered partial collection is the
    // stale one now. Discard and restart on the new version.
    Clear();
    ++restarts_;
  }
  if (have_[block.header.block_index]) {
    ++duplicates_rejected_;
    return OfferOutcome::kDuplicate;
  }
  version_ = block.header.version;
  have_[block.header.block_index] = true;
  ++distinct_;
  buffer_.push_back(block);
  block_epochs_.push_back(epoch);
  return CanReconstruct() ? OfferOutcome::kCompleted
                          : OfferOutcome::kAccepted;
}

std::uint32_t ReconstructingClient::EpochsSpanned() const {
  std::uint32_t distinct_epochs = 0;
  for (std::size_t i = 0; i < block_epochs_.size(); ++i) {
    bool seen = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (block_epochs_[j] == block_epochs_[i]) {
        seen = true;
        break;
      }
    }
    if (!seen) ++distinct_epochs;
  }
  return distinct_epochs;
}

Result<std::vector<std::uint8_t>> ReconstructingClient::Reconstruct() const {
  if (!CanReconstruct()) {
    return Status::DataLoss("ReconstructingClient: only " +
                            std::to_string(distinct_) + " of " +
                            std::to_string(m_) + " blocks collected");
  }
  return engine_.Reconstruct(buffer_);
}

void ReconstructingClient::Clear() {
  have_.assign(n_, false);
  distinct_ = 0;
  buffer_.clear();
  block_epochs_.clear();
  version_.reset();
}

RetrievalSession::RetrievalSession(broadcast::FileIndex file,
                                   std::uint32_t m, std::uint32_t n,
                                   std::size_t block_size,
                                   std::optional<std::uint64_t> start_slot)
    : client_(static_cast<ida::FileId>(file), m, n, block_size),
      start_slot_(start_slot) {
  client_.set_require_checksums(true);
}

bool RetrievalSession::TuneIn(std::uint64_t slot) {
  if (!tuned_in_ && slot >= start_slot()) {
    start_slot_ = start_slot_.value_or(slot);
    tuned_in_ = true;
  }
  return tuned_in_;
}

OfferOutcome RetrievalSession::Offer(std::uint64_t slot,
                                     const ida::Block& block,
                                     std::uint64_t epoch) {
  const OfferOutcome outcome = client_.OfferEx(block, epoch);
  if (!result_.completed && OfferSatisfied(outcome)) {
    result_.completed = true;
    result_.completion_slot = slot;
    result_.latency = slot - start_slot() + 1;
  }
  return outcome;
}

Result<SessionResult> RetrievalSession::Finish() const {
  SessionResult result = result_;
  result.epochs_spanned = client_.EpochsSpanned();
  if (result.completed) {
    BDISK_ASSIGN_OR_RETURN(result.data, client_.Reconstruct());
  }
  return result;
}

Result<SessionResult> WalkRetrieval(
    const std::function<Result<std::optional<ida::Block>>(std::uint64_t)>&
        fetch,
    const EpochSchedule* epochs, const faults::ChannelModel& channel,
    std::uint64_t horizon, RetrievalSession* session) {
  // The channel trace is a pure function of the slot, so the session
  // starts listening at its start slot directly — no replay from slot 0.
  faults::FaultCursor faults(&channel);
  session->TuneIn(session->start_slot());
  for (std::uint64_t t = session->start_slot();
       t < horizon && session->listening(); ++t) {
    // Fetched before the verdict: the server transmits (and a store-backed
    // versioned server commits each new version) whether or not the slot
    // arrives.
    BDISK_ASSIGN_OR_RETURN(std::optional<ida::Block> block, fetch(t));
    if (!block.has_value()) continue;
    const bool ours = block->header.file_id == session->client().file();
    const faults::FaultType fault = faults.At(t);
    if (fault == faults::FaultType::kLost) {
      if (ours) session->CountLost();
      continue;
    }
    if (fault == faults::FaultType::kCorrupted) {
      channel.CorruptBlock(t, &*block);
      if (ours) session->CountCorrupt();
    }
    session->Offer(t, *block, epochs == nullptr ? 0 : epochs->EpochIndexAt(t));
  }
  return session->Finish();
}

Result<SessionResult> RunRetrievalSession(const BroadcastServer& server,
                                          const faults::ChannelModel& channel,
                                          broadcast::FileIndex file,
                                          std::uint64_t start_slot,
                                          std::uint64_t horizon) {
  if (file >= server.program().file_count()) {
    return Status::InvalidArgument("RunRetrievalSession: unknown file");
  }
  const broadcast::ProgramFile& pf = server.program().files()[file];
  RetrievalSession session(file, pf.m, pf.n, server.block_size(),
                           start_slot);
  BDISK_ASSIGN_OR_RETURN(
      SessionResult result,
      WalkRetrieval(
          [&server](std::uint64_t t) { return server.FetchTransmission(t); },
          &server.schedule(), channel, horizon, &session));
  if (result.completed && result.lost_observed + result.corrupt_detected > 0) {
    // The stall baseline: the faultless session's completion, on the
    // shared index walk (no payload copies).
    const auto baseline = LosslessCompletionWalk(
        [&](std::uint64_t t) { return server.schedule().TransmissionAt(t); },
        file, pf.m, pf.n, start_slot, horizon);
    BDISK_CHECK(baseline.has_value());  // Completes by result's slot.
    result.stall_slots = result.completion_slot - *baseline;
  }
  return result;
}

}  // namespace bdisk::sim
