#include "sim/client.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>

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
  spare_rows_.reserve(std::min(n - m, m));
  block_epochs_.reserve(m);
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
  // can verify; it must not reach the arena.
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
      // the collected ones. Reject explicitly instead of silently
      // reconstructing a mix of snapshots.
      ++stale_rejected_;
      return OfferOutcome::kStaleVersion;
    }
    // A newer snapshot appeared: the partial collection is the stale one
    // now. Discard and restart on the new version.
    Clear();
    ++restarts_;
  }
  if (have_[block.header.block_index]) {
    ++duplicates_rejected_;
    return OfferOutcome::kDuplicate;
  }
  const std::uint32_t index = block.header.block_index;
  const std::size_t block_size = engine_.block_size();
  if (arena_.empty()) arena_.resize(std::size_t{m_} * block_size);
  std::uint8_t* row;
  if (index < m_) {
    row = arena_.data() + std::size_t{index} * block_size;
  } else {
    if (spares_ == nullptr) {
      // At most m blocks are collected, so at most min(n - m, m) spares.
      spares_ = std::make_unique_for_overwrite<std::uint8_t[]>(
          std::size_t{std::min(n_ - m_, m_)} * block_size);
    }
    row = spares_.get() + spare_rows_.size() * block_size;
    spare_rows_.push_back(index);
  }
  std::memcpy(row, block.payload.data(), block_size);
  version_ = block.header.version;
  have_[index] = true;
  ++distinct_;
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

Result<std::vector<std::uint8_t>> ReconstructingClient::Reconstruct() {
  if (!CanReconstruct()) {
    return Status::DataLoss("ReconstructingClient: only " +
                            std::to_string(distinct_) + " of " +
                            std::to_string(m_) + " blocks collected");
  }
  const std::size_t block_size = engine_.block_size();
  // The solve takes the received rows ascending: the data rows, then the
  // spares sorted by block index (they arrive in any order).
  std::array<std::size_t, ida::Dispersal::kMaxBlocks> received;
  std::array<const std::uint8_t*, ida::Dispersal::kMaxBlocks> parity;
  std::size_t held = 0;
  for (std::uint32_t j = 0; j < m_; ++j) {
    if (have_[j]) {
      received[held++] = j;
    } else if (arena_stale_) {
      std::memset(arena_.data() + std::size_t{j} * block_size, 0, block_size);
    }
  }
  std::array<std::uint32_t, ida::Dispersal::kMaxBlocks> slots;
  std::iota(slots.begin(), slots.begin() + spare_rows_.size(), 0u);
  std::sort(slots.begin(), slots.begin() + spare_rows_.size(),
            [this](std::uint32_t a, std::uint32_t b) {
              return spare_rows_[a] < spare_rows_[b];
            });
  for (std::size_t i = 0; i < spare_rows_.size(); ++i) {
    received[held + i] = spare_rows_[slots[i]];
    parity[i] = spares_.get() + std::size_t{slots[i]} * block_size;
  }
  BDISK_RETURN_NOT_OK(
      engine_.SolveErasures(received.data(), parity.data(), arena_.data()));
  std::vector<std::uint8_t> file = std::move(arena_);
  spares_.reset();
  Clear();
  return file;
}

void ReconstructingClient::Clear() {
  have_.assign(n_, false);
  // Rows a dropped collection wrote stay behind in the arena until a
  // hand-over takes the arena away.
  arena_stale_ = !arena_.empty() && (arena_stale_ || distinct_ > 0);
  distinct_ = 0;
  spare_rows_.clear();
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

Result<SessionResult> RetrievalSession::Finish() {
  SessionResult result = result_;
  // Read before the hand-over empties the client.
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
