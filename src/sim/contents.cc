#include "sim/contents.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "common/random.h"
#include "obs/registry.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define BDISK_CONTENTS_AVX2 1
#endif

namespace bdisk::sim {
namespace {

/// `word` in little-endian byte order, so a memcpy of it stores the same
/// bytes on every host.
std::uint64_t LittleEndian(std::uint64_t word) {
  if constexpr (std::endian::native == std::endian::big) {
    return __builtin_bswap64(word);
  }
  return word;
}

// The reference: one generator, one draw after another. A row that is not
// a multiple of eight bytes splits a draw with the next row, so the bytes
// of the draw it did not take are carried over.
void FillSerial(std::uint64_t seed, std::uint8_t* const* rows,
                std::size_t count, std::size_t row_bytes) {
  Rng rng(seed);
  std::uint8_t draw[8] = {};
  std::size_t left = 0;  // the last `left` bytes of `draw` are unwritten
  for (std::size_t j = 0; j < count; ++j) {
    std::uint8_t* p = rows[j];
    std::size_t n = row_bytes;
    const std::size_t carried = std::min(left, n);
    std::memcpy(p, draw + 8 - left, carried);
    p += carried;
    n -= carried;
    left -= carried;
    for (; n >= 8; p += 8, n -= 8) {
      const std::uint64_t word = LittleEndian(rng());
      std::memcpy(p, &word, 8);
    }
    if (n > 0) {
      const std::uint64_t word = LittleEndian(rng());
      std::memcpy(draw, &word, 8);
      std::memcpy(p, draw, n);
      left = 8 - n;
    }
  }
}

#if BDISK_CONTENTS_AVX2
constexpr std::size_t kLanes = internal::kContentsLanes;

// A linear map on the 256-bit generator state, by columns: cols[64 w + k]
// is the image of bit k of state word w.
struct StateMap {
  Rng::State cols[256];
};

// The state with bit c alone set: column c of the identity.
Rng::State Basis(std::size_t c) {
  Rng::State state{};
  state[c / 64] = 1ULL << c % 64;
  return state;
}

Rng::State Apply(const StateMap& map, const Rng::State& state) {
  Rng::State out{};
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::uint64_t bits = state[w]; bits != 0; bits &= bits - 1) {
      const Rng::State& col =
          map.cols[64 * w + static_cast<std::size_t>(std::countr_zero(bits))];
      for (std::size_t i = 0; i < 4; ++i) out[i] ^= col[i];
    }
  }
  return out;
}

// Writes `a` after `b` into `out`, which is neither.
void Compose(const StateMap& a, const StateMap& b, StateMap* out) {
  for (std::size_t c = 0; c < 256; ++c) out->cols[c] = Apply(a, b.cols[c]);
}

// T^L per lane length L, composed from the powers T^(2^i). The 8 KiB maps
// live in slabs of kSlabMaps, 128 KiB allocations that glibc serves by
// mmap: a dozen 8 KiB chunks kept for the process amid the heap made it
// trim and re-fault the pages of every later 32 KiB-block Disperse (~36
// minor faults and 5x the time a call, seen in a scratch probe). Maps are
// never moved or erased, so a returned one stays valid.
class JumpCache {
 public:
  const StateMap& Jump(std::uint64_t draws) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jumps_.find(draws);
    if (it != jumps_.end()) return *it->second;
    obs::ScopedPhaseTimer timer(obs::GlobalRegistry().GetHistogram(
        "phase.contents_jump_us", obs::PhaseTimerBoundsUs()));
    obs::GlobalRegistry().GetCounter("sim.contents_jumps")->Add();
    StateMap* jump = NewMap();
    for (std::size_t c = 0; c < 256; ++c) jump->cols[c] = Basis(c);
    for (std::size_t i = 0; (draws >> i) != 0; ++i) {
      if (i == powers_.size()) {
        StateMap* power = NewMap();
        if (i == 0) {
          Step(power);
        } else {
          Compose(*powers_[i - 1], *powers_[i - 1], power);
        }
        powers_.push_back(power);
      }
      if ((draws >> i) & 1) {
        Compose(*powers_[i], *jump, &scratch_);
        *jump = scratch_;
      }
    }
    return *jumps_.emplace(draws, jump).first->second;
  }

 private:
  static constexpr std::size_t kSlabMaps = 16;

  // T: one draw's state update, column by column.
  static void Step(StateMap* out) {
    for (std::size_t c = 0; c < 256; ++c) {
      Rng rng = Rng::FromState(Basis(c));
      rng();
      out->cols[c] = rng.state();
    }
  }

  StateMap* NewMap() {
    if (used_ == kSlabMaps) {
      slabs_.push_back(std::make_unique<StateMap[]>(kSlabMaps));
      used_ = 0;
    }
    return &slabs_.back()[used_++];
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<StateMap[]>> slabs_;
  std::size_t used_ = kSlabMaps;  // maps taken from the last slab
  StateMap scratch_;
  std::vector<const StateMap*> powers_;  // powers_[i] = T^(2^i)
  std::map<std::uint64_t, const StateMap*> jumps_;
};

JumpCache& Jumps() {
  static JumpCache cache;
  return cache;
}

// Four lanes in one GCC generic vector, a 256-bit register under the avx2
// target; the kernel runs two of them. AVX2 has neither a 64-bit multiply
// nor a rotate, so x5 and x9 are shift-adds and each rotate is two shifts.
typedef std::uint64_t Quad __attribute__((vector_size(32)));

// One draw of four lanes: Rng::operator() on each.
__attribute__((target("avx2"), always_inline)) inline Quad Draw(Quad& s0,
                                                                Quad& s1,
                                                                Quad& s2,
                                                                Quad& s3) {
  const Quad x = s1 + (s1 << 2);
  const Quad r = (x << 7) | (x >> 57);
  const Quad t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = (s3 << 45) | (s3 >> 19);
  return r + (r << 3);
}

// Four consecutive draws of four lanes, r[k] holding draw k of each,
// turned into four draws of each lane, so that a lane's four draws leave in
// one 32-byte store.
__attribute__((target("avx2"), always_inline)) inline void Transpose(
    Quad r[4]) {
  const Quad t0 = __builtin_shuffle(r[0], r[1], Quad{0, 4, 2, 6});
  const Quad t1 = __builtin_shuffle(r[0], r[1], Quad{1, 5, 3, 7});
  const Quad t2 = __builtin_shuffle(r[2], r[3], Quad{0, 4, 2, 6});
  const Quad t3 = __builtin_shuffle(r[2], r[3], Quad{1, 5, 3, 7});
  r[0] = __builtin_shuffle(t0, t2, Quad{0, 1, 4, 5});
  r[1] = __builtin_shuffle(t1, t3, Quad{0, 1, 4, 5});
  r[2] = __builtin_shuffle(t0, t2, Quad{2, 3, 6, 7});
  r[3] = __builtin_shuffle(t1, t3, Quad{2, 3, 6, 7});
}

// Advances eight lanes `draws` draws each: lane l writes its draws,
// little-endian, from dst[l] on. The target attribute compiles this one
// function for AVX2; it is only ever called after the CPU probe below has
// seen the feature.
__attribute__((target("avx2"))) void StepLanesAvx2(std::uint64_t* state,
                                                   std::uint8_t* const* dst,
                                                   std::uint64_t draws) {
  // Lanes 0-3 in a*, lanes 4-7 in b*; one register per state word.
  Quad a0, a1, a2, a3, b0, b1, b2, b3;
  std::memcpy(&a0, state, 32);
  std::memcpy(&b0, state + 4, 32);
  std::memcpy(&a1, state + 8, 32);
  std::memcpy(&b1, state + 12, 32);
  std::memcpy(&a2, state + 16, 32);
  std::memcpy(&b2, state + 20, 32);
  std::memcpy(&a3, state + 24, 32);
  std::memcpy(&b3, state + 28, 32);
  std::uint8_t* p[kLanes];
  std::copy(dst, dst + kLanes, p);
  std::uint64_t i = 0;
  for (; i + 4 <= draws; i += 4) {
    Quad lo[4], hi[4];
#pragma GCC unroll 4
    for (std::size_t k = 0; k < 4; ++k) {
      lo[k] = Draw(a0, a1, a2, a3);
      hi[k] = Draw(b0, b1, b2, b3);
    }
    Transpose(lo);
    Transpose(hi);
#pragma GCC unroll 4
    for (std::size_t l = 0; l < 4; ++l) {
      std::memcpy(p[l] + 8 * i, &lo[l], sizeof(Quad));
      std::memcpy(p[4 + l] + 8 * i, &hi[l], sizeof(Quad));
    }
  }
  for (; i < draws; ++i) {
    const Quad lo = Draw(a0, a1, a2, a3);
    const Quad hi = Draw(b0, b1, b2, b3);
#pragma GCC unroll 4
    for (std::size_t l = 0; l < 4; ++l) {
      const std::uint64_t low = lo[l];
      const std::uint64_t high = hi[l];
      std::memcpy(p[l] + 8 * i, &low, 8);
      std::memcpy(p[4 + l] + 8 * i, &high, 8);
    }
  }
  std::memcpy(state, &a0, 32);
  std::memcpy(state + 4, &b0, 32);
  std::memcpy(state + 8, &a1, 32);
  std::memcpy(state + 12, &b1, 32);
  std::memcpy(state + 16, &a2, 32);
  std::memcpy(state + 20, &b2, 32);
  std::memcpy(state + 24, &a3, 32);
  std::memcpy(state + 28, &b3, 32);
}

// The lane driver: eight lanes, lane l covering draws [l L, (l + 1) L) of
// the stream, with L = draws / 8; rows are a multiple of eight bytes, so a
// draw never straddles two of them. Each call of StepLanesAvx2 runs up to
// the next point where some lane crosses into its next row. State word w
// of lane l is state[8 w + l].
void FillLanes(std::uint64_t seed, std::uint8_t* const* rows,
               std::size_t count, std::size_t row_bytes) {
  if (row_bytes % 8 != 0) {
    FillSerial(seed, rows, count, row_bytes);
    return;
  }
  const std::uint64_t words = row_bytes / 8;
  const std::uint64_t draws = std::uint64_t{count} * words;
  const std::uint64_t lane = draws / kLanes;
  const StateMap& jump = Jumps().Jump(lane);
  alignas(64) std::uint64_t state[4 * kLanes] = {};
  Rng::State start = Rng(seed).state();
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (l > 0) start = Apply(jump, start);
    for (std::size_t w = 0; w < 4; ++w) state[kLanes * w + l] = start[w];
  }
  for (std::uint64_t done = 0; done < lane;) {
    std::uint8_t* dst[kLanes];
    std::uint64_t run = lane - done;
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::uint64_t at = l * lane + done;
      dst[l] = rows[at / words] + 8 * (at % words);
      run = std::min(run, words - at % words);
    }
    StepLanesAvx2(state, dst, run);
    done += run;
  }
  // Lane 7 ends at draw 8 L; the fewer than eight draws after it follow.
  Rng rng = Rng::FromState({state[kLanes - 1], state[2 * kLanes - 1],
                            state[3 * kLanes - 1], state[4 * kLanes - 1]});
  for (std::uint64_t at = kLanes * lane; at < draws; ++at) {
    const std::uint64_t word = LittleEndian(rng());
    std::memcpy(rows[at / words] + 8 * (at % words), &word, 8);
  }
}
#endif

std::vector<internal::ContentsKernel> BuildKernels() {
  std::vector<internal::ContentsKernel> out = {{"serial", FillSerial}};
#if BDISK_CONTENTS_AVX2
  if (__builtin_cpu_supports("avx2")) out.push_back({"avx2", FillLanes});
#endif
  return out;
}

}  // namespace

void SynthesizeRows(std::uint64_t seed, std::uint8_t* const* rows,
                    std::size_t count, std::size_t row_bytes) {
  static const auto kLaneFill = internal::ContentsKernels().size() > 1
                                    ? internal::ContentsKernels().back().fill
                                    : nullptr;
  // The lane kernel itself hands rows that are not a multiple of eight
  // bytes to the serial one.
  if (kLaneFill != nullptr &&
      count * (row_bytes / 8) >= internal::kMinLaneDraws) {
    kLaneFill(seed, rows, count, row_bytes);
  } else {
    FillSerial(seed, rows, count, row_bytes);
  }
}

namespace internal {

const std::vector<ContentsKernel>& ContentsKernels() {
  static const std::vector<ContentsKernel> kKernels = BuildKernels();
  return kKernels;
}

}  // namespace internal
}  // namespace bdisk::sim
