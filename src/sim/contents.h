/// \file contents.h
/// \brief Synthetic snapshot contents: the byte stream of one seeded
/// xoshiro256** generator, written across a stripe's data rows.
///
/// A versioned server stands in for a database update by drawing each
/// (file, version) snapshot from a generator seeded by the pair
/// (VersionedBroadcastServer::ContentsOf). The stream is eight bytes per
/// draw, each draw stored little-endian, and a stream whose length is not
/// a multiple of eight ends in the low bytes of one more draw. Rows are
/// consecutive pieces of that one stream, so the bytes do not depend on
/// where the rows live: one vector (ContentsOf) or a dispersal's data
/// payloads (the server's commit path) receive the same bytes.
///
/// Two kernels write the stream; `internal::ContentsKernels()` lists the
/// ones this host can run.
/// - "serial", everywhere: one generator, one draw after another. It is
///   the reference, and SynthesizeRows runs it on rows that are not a
///   multiple of eight bytes, on streams shorter than kMinLaneDraws and
///   on hosts without AVX2.
/// - "avx2", on x86-64 CPUs with AVX2: eight generators at once, one per
///   eighth of the stream. xoshiro256**'s state update is linear over
///   GF(2), so the state at draw k is T^k applied to the seeded state, T
///   being a 256 x 256 bit matrix. With L the stream's draws divided by
///   eight (rounded down), lane l starts at (T^L)^l of the seeded state,
///   and the last draws (fewer than eight) continue lane 7 one at a time.
///   T^L is composed from cached powers T^(2^i) the first time a stream
///   of L lanes' draws is synthesized and kept for the process behind a
///   lock; the build is timed in the "phase.contents_jump_us" histogram.
///   On a 2.1 GHz Xeon a 32 KiB row costs ~4.7 us serially (~1.15 ns a
///   draw, the chain of xoshiro's state update) and ~2.3 us in the lanes
///   once eight rows' worth fill them; a jump build takes ~40-60 us, and
///   the process's first ~0.3-0.7 ms, since it also builds the powers.
/// Both write the same bytes, so which kernel ran cannot be observed.

#ifndef BDISK_SIM_CONTENTS_H_
#define BDISK_SIM_CONTENTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bdisk::sim {

/// \brief Writes bytes [0, count * row_bytes) of Rng(seed)'s stream
/// across `count` rows of `row_bytes` bytes each: row j receives bytes
/// [j * row_bytes, (j + 1) * row_bytes). Rows must not overlap. Safe to
/// call from many threads at once.
void SynthesizeRows(std::uint64_t seed, std::uint8_t* const* rows,
                    std::size_t count, std::size_t row_bytes);

namespace internal {

/// \brief A synthesis kernel: its name and its fill, with SynthesizeRows'
/// contract. A lane kernel runs the serial one on rows that are not a
/// multiple of eight bytes, and otherwise runs its lanes however short the
/// stream is.
struct ContentsKernel {
  const char* name;
  void (*fill)(std::uint64_t seed, std::uint8_t* const* rows,
               std::size_t count, std::size_t row_bytes);
};

/// \brief Every kernel this host can run, "serial" first and the lane
/// kernel SynthesizeRows prefers last, so the tests can run each.
const std::vector<ContentsKernel>& ContentsKernels();

/// \brief Lanes of the lane kernel.
inline constexpr std::size_t kContentsLanes = 8;

/// \brief Shortest stream, in draws, that SynthesizeRows runs in lanes:
/// below it, starting eight lanes (seven jumps) costs more than the lanes
/// save.
inline constexpr std::uint64_t kMinLaneDraws = 2048;

}  // namespace internal
}  // namespace bdisk::sim

#endif  // BDISK_SIM_CONTENTS_H_
