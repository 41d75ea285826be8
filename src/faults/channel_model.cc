#include "faults/channel_model.h"

#include <algorithm>
#include <charconv>

#include "common/check.h"
#include "common/random.h"
#include "runtime/rng_stream.h"

namespace bdisk::faults {

namespace {

/// Stream-family tags mixed into each model's seed so that *different*
/// model families composed with the same user seed still draw from
/// decorrelated streams (without a tag, bernoulli:p=0.1+corrupt:p=0.05
/// with equal seeds would compare the identical uniform draw against both
/// thresholds, and the severity rule would silently swallow every
/// corruption under a loss). Same-family members of a composition should
/// still be given distinct seeds.
constexpr std::uint64_t kLossStreamTag = 0x10'55'7A'6B'E4'A0'01ULL;
constexpr std::uint64_t kBurstStreamTag = 0xB0'57'7A'6F'4A'3E'02ULL;
constexpr std::uint64_t kCorruptStreamTag = 0xC0'44'7A'61'0D'DB'03ULL;

/// Tag separating a corruption model's byte-damage draws from its
/// per-slot decision draws (both are indexed by slot).
constexpr std::uint64_t kCorruptionBytesTag = 0xC0B7'55E5'0DDB'A11ULL;

// Shortest representation that round-trips exactly (std::to_chars), so
// Describe() really is re-parseable to the *same* trace — %g's 6-digit
// truncation would silently rename non-round probabilities.
std::string FormatDouble(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  BDISK_CHECK(ec == std::errc());
  return std::string(buf, ptr);
}

}  // namespace

void ChannelModel::FillFaults(std::uint64_t begin, std::uint64_t end,
                              FaultType* out) const {
  for (std::uint64_t t = begin; t < end; ++t) out[t - begin] = FaultAt(t);
}

void ChannelModel::CorruptBlock(std::uint64_t, ida::Block*) const {}

void LosslessChannel::FillFaults(std::uint64_t begin, std::uint64_t end,
                                 FaultType* out) const {
  std::fill(out, out + (end - begin), FaultType::kNone);
}

FaultType BernoulliChannel::FaultAt(std::uint64_t slot) const {
  Rng rng = runtime::StreamRng(seed_ ^ kLossStreamTag, slot);
  return rng.Bernoulli(p_) ? FaultType::kLost : FaultType::kNone;
}

std::string BernoulliChannel::Describe() const {
  return "bernoulli:p=" + FormatDouble(p_) +
         ",seed=" + std::to_string(seed_);
}

double GilbertElliottChannel::StationaryBadProbability() const {
  const double to_bad = params_.p_good_to_bad;
  const double to_good = params_.p_bad_to_good;
  if (to_bad + to_good <= 0.0) return 0.0;
  return to_bad / (to_bad + to_good);
}

double GilbertElliottChannel::StationaryLossRate() const {
  const double pi_bad = StationaryBadProbability();
  return (1.0 - pi_bad) * params_.loss_good + pi_bad * params_.loss_bad;
}

FaultType GilbertElliottChannel::FaultAt(std::uint64_t slot) const {
  // One chain walk serves both: the frame runs from its start to `slot`.
  FaultType fault = FaultType::kNone;
  FillFaults(slot, slot + 1, &fault);
  return fault;
}

void GilbertElliottChannel::FillFaults(std::uint64_t begin, std::uint64_t end,
                                       FaultType* out) const {
  // Regenerate at each frame boundary, then run the chain within the
  // frame (loss, then transition, per slot). Each overlapped frame is
  // walked once instead of O(frame) work per slot.
  std::uint64_t t = begin;
  while (t < end) {
    const std::uint64_t frame = t / kFrameSlots;
    const std::uint64_t frame_end =
        std::min(end, (frame + 1) * kFrameSlots);
    Rng rng = runtime::StreamRng(seed_ ^ kBurstStreamTag, frame);
    bool bad = rng.Bernoulli(StationaryBadProbability());
    for (std::uint64_t s = frame * kFrameSlots; s < frame_end; ++s) {
      const bool lost =
          rng.Bernoulli(bad ? params_.loss_bad : params_.loss_good);
      if (s >= t) {
        out[s - begin] = lost ? FaultType::kLost : FaultType::kNone;
      }
      bad = bad ? !rng.Bernoulli(params_.p_bad_to_good)
                : rng.Bernoulli(params_.p_good_to_bad);
    }
    t = frame_end;
  }
}

std::string GilbertElliottChannel::Describe() const {
  return "gilbert:pgb=" + FormatDouble(params_.p_good_to_bad) +
         ",pbg=" + FormatDouble(params_.p_bad_to_good) +
         ",lg=" + FormatDouble(params_.loss_good) +
         ",lb=" + FormatDouble(params_.loss_bad) +
         ",seed=" + std::to_string(seed_);
}

FaultType CorruptionChannel::FaultAt(std::uint64_t slot) const {
  Rng rng = runtime::StreamRng(seed_ ^ kCorruptStreamTag, slot);
  return rng.Bernoulli(p_) ? FaultType::kCorrupted : FaultType::kNone;
}

void CorruptionChannel::CorruptBlock(std::uint64_t slot,
                                     ida::Block* block) const {
  // Damage 1-4 distinct bytes of the checksum-covered region: the payload
  // plus the serialized header identity bytes — the same canonical layout
  // BlockChecksum covers (ida::SerializeIdentity). The stored checksum
  // field is never touched, so stamped corruption is detectable. Distinct
  // positions XORed with non-zero deltas guarantee the block really
  // changes.
  Rng rng = runtime::StreamRng(seed_ ^ kCorruptionBytesTag, slot);
  const std::size_t covered =
      block->payload.size() + ida::kBlockIdentityBytes;
  const std::size_t count = static_cast<std::size_t>(
      1 + rng.Uniform(std::min<std::uint64_t>(4, covered)));
  auto identity = ida::SerializeIdentity(block->header);
  for (std::size_t pos : rng.SampleWithoutReplacement(covered, count)) {
    const auto delta = static_cast<std::uint8_t>(1 + rng.Uniform(255));
    if (pos < block->payload.size()) {
      block->payload[pos] ^= delta;
    } else {
      identity[pos - block->payload.size()] ^= delta;
    }
  }
  ida::DeserializeIdentity(identity, &block->header);
}

std::string CorruptionChannel::Describe() const {
  return "corrupt:p=" + FormatDouble(p_) + ",seed=" + std::to_string(seed_);
}

FaultType OutageChannel::FaultAt(std::uint64_t slot) const {
  if (slot < start_) return FaultType::kNone;
  const std::uint64_t offset = slot - start_;
  const std::uint64_t phase = period_ == 0 ? offset : offset % period_;
  return phase < length_ ? FaultType::kLost : FaultType::kNone;
}

std::string OutageChannel::Describe() const {
  return "outage:period=" + std::to_string(period_) +
         ",start=" + std::to_string(start_) +
         ",len=" + std::to_string(length_);
}

ComposedChannel::ComposedChannel(
    std::vector<std::unique_ptr<ChannelModel>> parts)
    : parts_(std::move(parts)) {
  BDISK_CHECK(!parts_.empty());
}

FaultType ComposedChannel::FaultAt(std::uint64_t slot) const {
  FaultType worst = FaultType::kNone;
  for (const auto& part : parts_) {
    worst = std::max(worst, part->FaultAt(slot));
  }
  return worst;
}

void ComposedChannel::FillFaults(std::uint64_t begin, std::uint64_t end,
                                 FaultType* out) const {
  parts_.front()->FillFaults(begin, end, out);
  std::vector<FaultType> member(end - begin);
  for (std::size_t i = 1; i < parts_.size(); ++i) {
    parts_[i]->FillFaults(begin, end, member.data());
    for (std::uint64_t t = 0; t < end - begin; ++t) {
      out[t] = std::max(out[t], member[t]);
    }
  }
}

void ComposedChannel::CorruptBlock(std::uint64_t slot,
                                   ida::Block* block) const {
  for (const auto& part : parts_) {
    if (part->FaultAt(slot) == FaultType::kCorrupted) {
      part->CorruptBlock(slot, block);
    }
  }
}

std::string ComposedChannel::Describe() const {
  std::string out;
  for (const auto& part : parts_) {
    if (!out.empty()) out += "+";
    out += part->Describe();
  }
  return out;
}

ComposedChannel LostSlots(const std::vector<std::uint64_t>& slots) {
  std::vector<std::unique_ptr<ChannelModel>> parts;
  parts.push_back(std::make_unique<LosslessChannel>());
  for (const std::uint64_t slot : slots) {
    parts.push_back(std::make_unique<OutageChannel>(0, slot, 1));
  }
  return ComposedChannel(std::move(parts));
}

FaultType FaultCursor::At(std::uint64_t slot) {
  if (slot < begin_ || slot - begin_ >= chunk_.size()) {
    begin_ = slot - slot % GilbertElliottChannel::kFrameSlots;
    chunk_.resize(kChunkSlots);
    channel_->FillFaults(begin_, begin_ + kChunkSlots, chunk_.data());
  }
  return chunk_[slot - begin_];
}

}  // namespace bdisk::faults
