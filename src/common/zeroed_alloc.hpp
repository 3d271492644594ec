// Lazily zeroed storage for capacity-sized arrays.
//
// A device keeps two arrays sized by its capacity, not by what it has
// written: the media state of every 4 KiB slot and the L2P entry of
// every lpn. Both encode their default as all-zero bytes, so they can
// live in memory the kernel hands out zeroed. `ZeroPageAllocator` takes
// each allocation from its own anonymous private `mmap`: the pages read
// as zero, become resident only once written, and go back to the kernel
// with `munmap`. Its `construct` with no arguments is a no-op, so a
// `std::vector` using it value-initialises by not touching the memory
// at all — an idle device costs almost no resident memory, and a busy
// one costs the pages its writes reached.
//
// Contract: use it only for element types whose all-zero bytes are the
// value-initialised value, and only in vectors that are sized once
// (resize / construction) and then assigned through. Shrinking and
// re-growing within capacity would expose the old bytes, because the
// no-op construct does not clear them.
//
// The storage is outside the malloc heap, so AddressSanitizer puts no
// redzones around it; `-D_GLIBCXX_ASSERTIONS` keeps `operator[]`
// bounds-checked instead (CI's sanitizer jobs build with it).
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <type_traits>
#include <vector>

namespace conzone {

template <class T>
class ZeroPageAllocator {
  static_assert(std::is_trivially_copyable_v<T>,
                "zero pages stand in for value-initialisation only for trivially "
                "copyable element types");

 public:
  using value_type = T;

  ZeroPageAllocator() = default;
  template <class U>
  ZeroPageAllocator(const ZeroPageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept { munmap(p, n * sizeof(T)); }

  /// Value-initialisation: the bytes are already zero (see the contract
  /// above), and writing them would make the page resident. Construction
  /// with arguments falls through to placement new.
  template <class U>
  void construct(U*) noexcept {}

  template <class U>
  bool operator==(const ZeroPageAllocator<U>&) const noexcept {
    return true;
  }
};

/// The vector both capacity-sized arrays use.
template <class T>
using ZeroedVector = std::vector<T, ZeroPageAllocator<T>>;

}  // namespace conzone
