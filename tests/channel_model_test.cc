// Tests for the fault-injection channel models (src/faults/): the
// determinism contract (pure, random-access, shard-invariant traces), the
// statistical properties of each model, corruption application, and the
// channel-spec parser.

#include "faults/channel_model.h"

#include <gtest/gtest.h>

#include <vector>

#include "faults/channel_spec.h"
#include "ida/block.h"

namespace bdisk::faults {
namespace {

std::vector<FaultType> Realize(const ChannelModel& channel, std::uint64_t n) {
  std::vector<FaultType> out(n);
  channel.FillFaults(0, n, out.data());
  return out;
}

// The determinism contract, part 1: FaultAt is pure, so two evaluations
// (and two model instances with the same parameters) agree slot by slot.
TEST(ChannelModelTest, TracesAreReproducible) {
  const BernoulliChannel a(0.3, 99);
  const BernoulliChannel b(0.3, 99);
  const GilbertElliottChannel g1({}, 7);
  const GilbertElliottChannel g2({}, 7);
  for (std::uint64_t t = 0; t < 2000; ++t) {
    EXPECT_EQ(a.FaultAt(t), b.FaultAt(t)) << "slot " << t;
    EXPECT_EQ(g1.FaultAt(t), g2.FaultAt(t)) << "slot " << t;
  }
}

// Part 2: random access equals sequential fill, for every model — this is
// what makes traces shard-count invariant (any partition of [0, H) into
// FillFaults calls, or any per-slot FaultAt pattern, sees one realization).
TEST(ChannelModelTest, RandomAccessMatchesSequentialFill) {
  GilbertElliottChannel::Params params;
  params.p_good_to_bad = 0.05;
  params.p_bad_to_good = 0.3;
  const BernoulliChannel bern(0.2, 5);
  const GilbertElliottChannel gilbert(params, 5);
  const CorruptionChannel corrupt(0.15, 5);
  const OutageChannel outage(64, 10, 7);
  for (const ChannelModel* model :
       {static_cast<const ChannelModel*>(&bern),
        static_cast<const ChannelModel*>(&gilbert),
        static_cast<const ChannelModel*>(&corrupt),
        static_cast<const ChannelModel*>(&outage)}) {
    constexpr std::uint64_t kHorizon = 1500;
    const std::vector<FaultType> fill = Realize(*model, kHorizon);
    // Per-slot random access, probed out of order.
    for (std::uint64_t t = kHorizon; t-- > 0;) {
      EXPECT_EQ(model->FaultAt(t), fill[t])
          << model->Describe() << " slot " << t;
    }
    // Arbitrary-offset fills (shard boundaries).
    for (std::uint64_t begin : {std::uint64_t{1}, std::uint64_t{255},
                                std::uint64_t{256}, std::uint64_t{777}}) {
      std::vector<FaultType> shard(kHorizon - begin);
      model->FillFaults(begin, kHorizon, shard.data());
      for (std::uint64_t t = begin; t < kHorizon; ++t) {
        ASSERT_EQ(shard[t - begin], fill[t])
            << model->Describe() << " begin " << begin << " slot " << t;
      }
    }
  }
}

TEST(ChannelModelTest, LosslessNeverFaults) {
  const LosslessChannel channel;
  for (std::uint64_t t = 0; t < 1000; ++t) {
    EXPECT_EQ(channel.FaultAt(t), FaultType::kNone);
  }
}

TEST(BernoulliChannelTest, RateApproximatesP) {
  const BernoulliChannel channel(0.2, 7);
  int losses = 0;
  const int trials = 100000;
  for (int t = 0; t < trials; ++t) {
    if (channel.FaultAt(t) == FaultType::kLost) ++losses;
  }
  EXPECT_NEAR(static_cast<double>(losses) / trials, 0.2, 0.01);
}

TEST(BernoulliChannelTest, ZeroAndOneRates) {
  const BernoulliChannel never(0.0, 1);
  const BernoulliChannel always(1.0, 1);
  for (std::uint64_t t = 0; t < 1000; ++t) {
    EXPECT_EQ(never.FaultAt(t), FaultType::kNone) << "slot " << t;
    EXPECT_EQ(always.FaultAt(t), FaultType::kLost) << "slot " << t;
  }
}

TEST(BernoulliChannelTest, DistinctSeedsDecorrelate) {
  const BernoulliChannel a(0.5, 1);
  const BernoulliChannel b(0.5, 2);
  int agree = 0;
  const int trials = 10000;
  for (int t = 0; t < trials; ++t) {
    if (a.FaultAt(t) == b.FaultAt(t)) ++agree;
  }
  // Independent fair coins agree about half the time.
  EXPECT_NEAR(static_cast<double>(agree) / trials, 0.5, 0.05);
}

TEST(GilbertElliottChannelTest, StationaryLossRateFormula) {
  GilbertElliottChannel::Params params;
  params.p_good_to_bad = 0.1;
  params.p_bad_to_good = 0.3;
  params.loss_good = 0.0;
  params.loss_bad = 1.0;
  const GilbertElliottChannel channel(params, 5);
  // pi_bad = 0.1 / 0.4 = 0.25 -> loss rate 0.25.
  EXPECT_NEAR(channel.StationaryLossRate(), 0.25, 1e-12);
}

TEST(GilbertElliottChannelTest, EmpiricalRateMatchesStationary) {
  GilbertElliottChannel::Params params;
  params.p_good_to_bad = 0.05;
  params.p_bad_to_good = 0.45;
  const GilbertElliottChannel channel(params, 17);
  const std::uint64_t trials = 200000;
  const std::vector<FaultType> trace = Realize(channel, trials);
  std::uint64_t losses = 0;
  for (FaultType f : trace) {
    if (f == FaultType::kLost) ++losses;
  }
  EXPECT_NEAR(static_cast<double>(losses) / static_cast<double>(trials),
              channel.StationaryLossRate(), 0.01);
}

TEST(GilbertElliottChannelTest, LossesAreBursty) {
  // With slow transitions, consecutive-loss runs must be much longer than
  // under an independent model of the same rate.
  GilbertElliottChannel::Params params;
  params.p_good_to_bad = 0.01;
  params.p_bad_to_good = 0.1;
  const GilbertElliottChannel channel(params, 23);
  const std::vector<FaultType> trace = Realize(channel, 200000);
  std::uint64_t runs = 0;
  std::uint64_t losses = 0;
  bool prev = false;
  for (FaultType f : trace) {
    const bool lost = f == FaultType::kLost;
    if (lost) {
      ++losses;
      if (!prev) ++runs;
    }
    prev = lost;
  }
  ASSERT_GT(runs, 0u);
  const double mean_run =
      static_cast<double>(losses) / static_cast<double>(runs);
  EXPECT_GT(mean_run, 5.0);  // Expected run length ~ 1/p_bad_to_good = 10.
}

TEST(OutageChannelTest, PeriodicWindows) {
  const OutageChannel channel(/*period=*/10, /*start=*/3, /*length=*/2);
  for (std::uint64_t t = 0; t < 3; ++t) {
    EXPECT_EQ(channel.FaultAt(t), FaultType::kNone) << t;
  }
  for (std::uint64_t base : {std::uint64_t{3}, std::uint64_t{13},
                             std::uint64_t{103}}) {
    EXPECT_EQ(channel.FaultAt(base), FaultType::kLost);
    EXPECT_EQ(channel.FaultAt(base + 1), FaultType::kLost);
    EXPECT_EQ(channel.FaultAt(base + 2), FaultType::kNone);
  }
}

TEST(OutageChannelTest, OneShotWindow) {
  const OutageChannel channel(/*period=*/0, /*start=*/100, /*length=*/50);
  EXPECT_EQ(channel.FaultAt(99), FaultType::kNone);
  EXPECT_EQ(channel.FaultAt(100), FaultType::kLost);
  EXPECT_EQ(channel.FaultAt(149), FaultType::kLost);
  EXPECT_EQ(channel.FaultAt(150), FaultType::kNone);
  EXPECT_EQ(channel.FaultAt(100000), FaultType::kNone);
}

TEST(CorruptionChannelTest, CorruptionIsDetectedByChecksum) {
  const CorruptionChannel channel(1.0, 11);
  for (std::uint64_t slot = 0; slot < 500; ++slot) {
    ida::Block block;
    block.header = ida::BlockHeader{3, 1, 2, 4, 9};
    block.payload.assign(64, static_cast<std::uint8_t>(slot));
    ida::StampChecksum(&block);
    ASSERT_EQ(ida::VerifyChecksum(block), ida::ChecksumState::kValid);
    ida::Block damaged = block;
    channel.CorruptBlock(slot, &damaged);
    EXPECT_NE(damaged, block) << "slot " << slot;
    EXPECT_EQ(ida::VerifyChecksum(damaged), ida::ChecksumState::kMismatch)
        << "slot " << slot;
  }
}

TEST(CorruptionChannelTest, CorruptionIsDeterministic) {
  const CorruptionChannel channel(1.0, 11);
  ida::Block a;
  a.header = ida::BlockHeader{1, 0, 2, 3, 0};
  a.payload.assign(32, 0xAB);
  ida::StampChecksum(&a);
  ida::Block b = a;
  channel.CorruptBlock(42, &a);
  channel.CorruptBlock(42, &b);
  EXPECT_EQ(a, b);
}

TEST(ComposedChannelTest, TakesWorstEffectPerSlot) {
  std::vector<std::unique_ptr<ChannelModel>> parts;
  parts.push_back(std::make_unique<OutageChannel>(0, 10, 5));
  parts.push_back(std::make_unique<CorruptionChannel>(1.0, 3));
  const ComposedChannel channel(std::move(parts));
  // Inside the outage window loss dominates corruption; outside, the
  // always-corrupting member shows through.
  EXPECT_EQ(channel.FaultAt(12), FaultType::kLost);
  EXPECT_EQ(channel.FaultAt(20), FaultType::kCorrupted);
  const std::vector<FaultType> fill = Realize(channel, 64);
  for (std::uint64_t t = 0; t < 64; ++t) {
    EXPECT_EQ(fill[t], channel.FaultAt(t)) << t;
  }
}

TEST(ComposedChannelTest, EqualSeedsAcrossFamiliesStayIndependent) {
  // Model families draw from family-tagged streams: a loss model and a
  // corruption model sharing seed 1 must NOT share their uniform draws —
  // otherwise every corruption would hide under a loss (severity max) and
  // corruption would silently never be delivered.
  std::vector<std::unique_ptr<ChannelModel>> parts;
  parts.push_back(std::make_unique<BernoulliChannel>(0.1, 1));
  parts.push_back(std::make_unique<CorruptionChannel>(0.05, 1));
  const ComposedChannel channel(std::move(parts));
  std::uint64_t corrupted = 0;
  const std::uint64_t trials = 100000;
  for (std::uint64_t t = 0; t < trials; ++t) {
    if (channel.FaultAt(t) == FaultType::kCorrupted) ++corrupted;
  }
  // Independent streams deliver ~ 0.05 * (1 - 0.1) = 4.5% corrupted slots.
  EXPECT_NEAR(static_cast<double>(corrupted) / static_cast<double>(trials),
              0.045, 0.005);
}

TEST(LostSlotsTest, LosesExactlyTheListedSlots) {
  const ComposedChannel channel = LostSlots({3, 5, 8});
  const std::vector<FaultType> fill = Realize(channel, 64);
  for (std::uint64_t t = 0; t < 64; ++t) {
    const bool listed = t == 3 || t == 5 || t == 8;
    EXPECT_EQ(fill[t], listed ? FaultType::kLost : FaultType::kNone) << t;
  }
  // Describe() re-parses (through outage: terms) to the same trace.
  auto reparsed = ParseChannelSpec(channel.Describe());
  ASSERT_TRUE(reparsed.ok()) << channel.Describe();
  EXPECT_EQ(Realize(**reparsed, 64), fill) << channel.Describe();

  const ComposedChannel none = LostSlots({});
  EXPECT_EQ(Realize(none, 64), std::vector<FaultType>(64, FaultType::kNone));
  auto reparsed_none = ParseChannelSpec(none.Describe());
  ASSERT_TRUE(reparsed_none.ok()) << none.Describe();
  EXPECT_EQ(Realize(**reparsed_none, 64), Realize(none, 64));
}

TEST(ChannelSpecTest, ParsesEveryModelAndRoundTrips) {
  for (const char* spec :
       {"lossless", "bernoulli:p=0.1,seed=42",
        // Non-round probability: Describe() must round-trip the exact
        // double (shortest to_chars form), not a 6-digit truncation.
        "bernoulli:p=0.123456789123,seed=4",
        "gilbert:pgb=0.02,pbg=0.2,lg=0,lb=1,seed=9", "corrupt:p=0.05,seed=3",
        "outage:period=1024,start=512,len=64",
        "bernoulli:p=0.1,seed=42+corrupt:p=0.05,seed=3"}) {
    auto parsed = ParseChannelSpec(spec);
    ASSERT_TRUE(parsed.ok()) << spec << ": " << parsed.status();
    // Describe() re-parses to an equivalent model (same trace).
    auto reparsed = ParseChannelSpec((*parsed)->Describe());
    ASSERT_TRUE(reparsed.ok()) << (*parsed)->Describe();
    for (std::uint64_t t = 0; t < 512; ++t) {
      ASSERT_EQ((*parsed)->FaultAt(t), (*reparsed)->FaultAt(t))
          << spec << " slot " << t;
    }
  }
}

TEST(ChannelSpecTest, DefaultsApply) {
  auto parsed = ParseChannelSpec("bernoulli");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->Describe(), "bernoulli:p=0.1,seed=1");
}

TEST(ChannelSpecTest, RejectsMalformedSpecs) {
  for (const char* spec :
       {"", "warp", "bernoulli:p=1.5", "bernoulli:p=-0.1", "bernoulli:p=x",
        "bernoulli:q=0.1", "bernoulli:p", "bernoulli:p=",
        "gilbert:pgb=0.1,pgb=0.2", "outage:len=-3", "outage:len=2x",
        "bernoulli+warp"}) {
    auto parsed = ParseChannelSpec(spec);
    EXPECT_FALSE(parsed.ok()) << "accepted: '" << spec << "'";
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsInvalidArgument()) << spec;
    }
  }
}

}  // namespace
}  // namespace bdisk::faults
