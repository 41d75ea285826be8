/// \file bitmap.h
/// \brief Free-space bitmap over a block device's sectors.
///
/// The bitmap is DERIVED state: it is rebuilt from the committed catalog
/// at Open and after every Commit (superblocks + catalog extent + every
/// entry's extents), never persisted. Bitmap/catalog divergence is
/// therefore impossible by construction — the catalog is the single
/// source of truth, exactly as the epoch schedule is the single source of
/// truth for the broadcast program.
///
/// Runs are tested, set and searched a 64-bit word at a time: AllocateRun
/// skips full words and measures free runs with count-trailing-zeros, so
/// a search takes a step per word, not per sector. Placement is still
/// exactly first fit — the lowest start whose run fits — so the on-disk
/// layout is the same as a bit-by-bit scan's.

#ifndef BDISK_STORE_BITMAP_H_
#define BDISK_STORE_BITMAP_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.h"

namespace bdisk::store {

/// \brief Bitmap over `size` sectors; a set bit means "in use".
class FreeBitmap {
 public:
  explicit FreeBitmap(std::uint64_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  std::uint64_t size() const { return size_; }

  bool Test(std::uint64_t index) const {
    BDISK_CHECK(index < size_);
    return (words_[index >> 6] >> (index & 63)) & 1;
  }

  void Set(std::uint64_t index) {
    BDISK_CHECK(index < size_);
    words_[index >> 6] |= 1ull << (index & 63);
  }

  void Clear(std::uint64_t index) {
    BDISK_CHECK(index < size_);
    words_[index >> 6] &= ~(1ull << (index & 63));
  }

  /// True iff any sector of [first, first + count) is in use.
  bool AnySet(std::uint64_t first, std::uint64_t count) const {
    CheckRun(first, count);
    const std::uint64_t end = first + count;
    for (std::uint64_t w = first >> 6; w << 6 < end; ++w) {
      if ((words_[w] & RunMask(w, first, end)) != 0) return true;
    }
    return false;
  }

  /// Marks every sector of [first, first + count) used.
  void SetRun(std::uint64_t first, std::uint64_t count) {
    CheckRun(first, count);
    const std::uint64_t end = first + count;
    for (std::uint64_t w = first >> 6; w << 6 < end; ++w) {
      words_[w] |= RunMask(w, first, end);
    }
  }

  /// Number of free (unset) sectors.
  std::uint64_t FreeCount() const {
    std::uint64_t used = 0;
    for (std::uint64_t w : words_) used += static_cast<std::uint64_t>(
        __builtin_popcountll(w));
    return size_ - used;
  }

  /// First-fit: finds `run` contiguous free sectors, marks them used, and
  /// returns the first index. nullopt if no such run exists.
  std::optional<std::uint64_t> AllocateRun(std::uint64_t run) {
    if (run == 0 || run > size_) return std::nullopt;
    for (std::uint64_t start = NextFree(0); run <= size_ - start;) {
      const std::uint64_t end = NextUsed(start, start + run);
      if (end - start == run) {
        SetRun(start, run);
        return start;
      }
      start = NextFree(end);
    }
    return std::nullopt;
  }

 private:
  void CheckRun(std::uint64_t first, std::uint64_t count) const {
    BDISK_CHECK(first <= size_ && count <= size_ - first);
  }

  /// The bits of word `w` that fall in [first, end).
  static std::uint64_t RunMask(std::uint64_t w, std::uint64_t first,
                               std::uint64_t end) {
    const std::uint64_t base = w << 6;
    const std::uint64_t lo = std::max(first, base) - base;
    const std::uint64_t hi = std::min(end, base + 64) - base;
    const std::uint64_t below_hi = hi == 64 ? ~0ull : (1ull << hi) - 1;
    return below_hi & ~((1ull << lo) - 1);
  }

  /// First free sector at or after `from`; size() if there is none.
  std::uint64_t NextFree(std::uint64_t from) const {
    std::uint64_t w = from >> 6;
    if (w >= words_.size()) return size_;
    std::uint64_t bits = ~words_[w] & (~0ull << (from & 63));
    while (bits == 0) {
      if (++w == words_.size()) return size_;
      bits = ~words_[w];
    }
    return std::min(size_, (w << 6) + __builtin_ctzll(bits));
  }

  /// First used sector in [from, limit); `limit` if there is none.
  /// Requires from < limit <= size().
  std::uint64_t NextUsed(std::uint64_t from, std::uint64_t limit) const {
    std::uint64_t w = from >> 6;
    std::uint64_t bits = words_[w] & (~0ull << (from & 63));
    while (bits == 0) {
      if (++w << 6 >= limit) return limit;
      bits = words_[w];
    }
    return std::min(limit, (w << 6) + __builtin_ctzll(bits));
  }

  std::uint64_t size_;
  std::vector<std::uint64_t> words_;
};

}  // namespace bdisk::store

#endif  // BDISK_STORE_BITMAP_H_
