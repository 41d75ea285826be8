/// \file channel_model.h
/// \brief Pluggable erasure-channel models for fault injection.
///
/// The paper's fault-tolerance claim — any m of a file's n dispersed blocks
/// reconstruct it — is only exercised by a lossy channel. This layer models
/// the channel as a deterministic *fault trace*: a function from the
/// absolute slot number to a per-slot fault effect,
///
///   kNone       the block is delivered intact,
///   kLost       the block never arrives (erasure),
///   kCorrupted  the block arrives with damaged bytes (the client must
///               detect it via the block checksum and discard it).
///
/// **Determinism contract.** `FaultAt(slot)` is a *pure* function of
/// (model parameters, seed, slot), computed from the counter-based RNG
/// streams of runtime/rng_stream.h — never from mutable sequential state.
/// Consequently a fault trace is (a) exactly reproducible from its seed,
/// (b) random-access (a client starting at slot 10^6 needs no replay from
/// slot 0), and (c) invariant under sharding: any thread count observes the
/// identical realization, which is what keeps the sharded simulator's
/// metrics bit-identical to the serial path under faults.
///
/// The bursty Gilbert–Elliott model is inherently a Markov chain; it keeps
/// the contract by *frame regeneration*: time is cut into fixed frames, the
/// state at each frame boundary is drawn from the chain's stationary
/// distribution on the frame's own RNG stream, and the chain runs
/// sequentially only within a frame. Random access costs O(frame length);
/// burst statistics are exact within frames and only the (rare) bursts
/// straddling a boundary are truncated.
///
/// Models are safe for concurrent const use.

#ifndef BDISK_FAULTS_CHANNEL_MODEL_H_
#define BDISK_FAULTS_CHANNEL_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ida/block.h"

namespace bdisk::faults {

/// \brief Per-slot fault effect, in increasing severity order.
enum class FaultType : std::uint8_t {
  kNone = 0,
  kCorrupted = 1,
  kLost = 2,
};

/// \brief A deterministic, random-access fault trace.
class ChannelModel {
 public:
  virtual ~ChannelModel() = default;

  /// The fault effect at `slot`. Pure: depends only on the model's
  /// configuration and `slot`.
  virtual FaultType FaultAt(std::uint64_t slot) const = 0;

  /// Fills `out[0 .. end-begin)` with the effects of slots [begin, end).
  /// Semantically identical to calling FaultAt per slot; stateful-in-spirit
  /// models (Gilbert–Elliott) override it to walk each frame once.
  virtual void FillFaults(std::uint64_t begin, std::uint64_t end,
                          FaultType* out) const;

  /// Applies this model's slot-`slot` corruption to `block`. Only
  /// meaningful when FaultAt(slot) == kCorrupted; the base implementation
  /// is a no-op. Implementations damage the checksum-covered bytes (payload
  /// and header identity fields) and never touch the stored checksum field,
  /// so a stamped block's corruption is detectable (guaranteed for bursts
  /// <= 32 bits, with probability 1 - 2^-32 otherwise).
  virtual void CorruptBlock(std::uint64_t slot, ida::Block* block) const;

  /// Canonical human/machine-readable description, re-parseable by
  /// ParseChannelSpec (channel_spec.h), e.g. "bernoulli:p=0.1,seed=42".
  virtual std::string Describe() const = 0;
};

/// \brief The fault-free channel ("lossless").
class LosslessChannel final : public ChannelModel {
 public:
  FaultType FaultAt(std::uint64_t) const override { return FaultType::kNone; }
  void FillFaults(std::uint64_t begin, std::uint64_t end,
                  FaultType* out) const override;
  std::string Describe() const override { return "lossless"; }
};

/// \brief Independent per-slot loss with probability p (the paper's model:
/// "individual transmission errors occur independently of each other").
class BernoulliChannel final : public ChannelModel {
 public:
  BernoulliChannel(double loss_probability, std::uint64_t seed)
      : p_(loss_probability), seed_(seed) {}

  FaultType FaultAt(std::uint64_t slot) const override;
  std::string Describe() const override;

 private:
  double p_;
  std::uint64_t seed_;
};

/// \brief Two-state bursty loss (Gilbert–Elliott) under frame regeneration.
class GilbertElliottChannel final : public ChannelModel {
 public:
  struct Params {
    /// P(Good -> Bad) per slot.
    double p_good_to_bad = 0.01;
    /// P(Bad -> Good) per slot.
    double p_bad_to_good = 0.25;
    /// Loss probability while Good.
    double loss_good = 0.0;
    /// Loss probability while Bad.
    double loss_bad = 1.0;
  };

  /// Slots per regeneration frame. Large against the default mean burst
  /// length (1 / p_bad_to_good = 4), so boundary truncation is negligible.
  static constexpr std::uint64_t kFrameSlots = 256;

  GilbertElliottChannel(const Params& params, std::uint64_t seed)
      : params_(params), seed_(seed) {}

  FaultType FaultAt(std::uint64_t slot) const override;
  void FillFaults(std::uint64_t begin, std::uint64_t end,
                  FaultType* out) const override;
  std::string Describe() const override;

  /// Stationary probability of the Bad state.
  double StationaryBadProbability() const;
  /// Stationary per-slot loss probability of the configured chain.
  double StationaryLossRate() const;

 private:
  Params params_;
  std::uint64_t seed_;
};

/// \brief Independent per-slot byte corruption with probability p: the
/// block arrives, but 1-4 of its checksum-covered bytes (payload, or —
/// rarely — header identity fields) are damaged.
class CorruptionChannel final : public ChannelModel {
 public:
  CorruptionChannel(double corruption_probability, std::uint64_t seed)
      : p_(corruption_probability), seed_(seed) {}

  FaultType FaultAt(std::uint64_t slot) const override;
  void CorruptBlock(std::uint64_t slot, ida::Block* block) const override;
  std::string Describe() const override;

 private:
  double p_;
  std::uint64_t seed_;
};

/// \brief Deterministic outage windows: every slot with
/// (slot - start) mod period in [0, length) is lost; period == 0 gives the
/// single window [start, start + length).
///
/// This models per-disk downtime: a multi-disk program places each disk's
/// chunks at fixed offsets within its minor cycle, so a periodic window
/// aligned with the minor cycle blacks out exactly one disk's slots (and a
/// one-shot window models a client driving through a tunnel).
class OutageChannel final : public ChannelModel {
 public:
  OutageChannel(std::uint64_t period, std::uint64_t start,
                std::uint64_t length)
      : period_(period), start_(start), length_(length) {}

  FaultType FaultAt(std::uint64_t slot) const override;
  std::string Describe() const override;

 private:
  std::uint64_t period_;
  std::uint64_t start_;
  std::uint64_t length_;
};

/// \brief Superposition of independent channels: each slot suffers the
/// most severe member effect (kLost > kCorrupted > kNone); corruption is
/// applied by every member that corrupts the slot.
///
/// Different model *families* draw from family-tagged RNG streams, so
/// e.g. a Bernoulli loss and a corruption model with the same seed are
/// still independent. Two same-family members with identical seeds and
/// parameters are the same trace — give them distinct seeds.
class ComposedChannel final : public ChannelModel {
 public:
  explicit ComposedChannel(std::vector<std::unique_ptr<ChannelModel>> parts);

  FaultType FaultAt(std::uint64_t slot) const override;
  void FillFaults(std::uint64_t begin, std::uint64_t end,
                  FaultType* out) const override;
  void CorruptBlock(std::uint64_t slot, ida::Block* block) const override;
  std::string Describe() const override;

 private:
  std::vector<std::unique_ptr<ChannelModel>> parts_;
};

/// \brief Deterministic fault injection for tests and worst-case
/// experiments: exactly the listed slots are lost. Built as a lossless base
/// (so the empty set is legal) composed with one-slot outage windows, so
/// Describe() re-parses to the same trace.
ComposedChannel LostSlots(const std::vector<std::uint64_t>& slots);

}  // namespace bdisk::faults

#endif  // BDISK_FAULTS_CHANNEL_MODEL_H_
