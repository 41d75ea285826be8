/// \file default_init_allocator.h
/// \brief An allocator whose no-argument construct leaves bytes unwritten.
///
/// A `std::vector<std::uint8_t>` sized with `resize(n)` or `vector(n)`
/// value-initializes, so it writes n zeros that a producer about to
/// overwrite the bytes never reads. With this allocator those calls leave
/// the bytes as the heap returned them. Block payloads (ida::Payload) use it
/// because every producer overwrites them whole; the in-memory block device
/// (store::MemBlockDevice) uses it because it zero-fills only the sectors
/// it hands out unwritten.

#ifndef BDISK_COMMON_DEFAULT_INIT_ALLOCATOR_H_
#define BDISK_COMMON_DEFAULT_INIT_ALLOCATOR_H_

#include <memory>
#include <new>
#include <type_traits>

namespace bdisk {

/// \brief std::allocator, except that constructing an element with no
/// argument default-initializes it: for bytes, it leaves them unwritten.
/// Only that one `construct` is defined, so a copy, `assign` or
/// initializer list still constructs from its arguments as usual.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

}  // namespace bdisk

#endif  // BDISK_COMMON_DEFAULT_INIT_ALLOCATOR_H_
