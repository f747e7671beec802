#pragma once
// Aligned allocator for SIMD-friendly buffers. Tensor data/grad storage
// uses the 64-byte default so the AVX2 kernels (clo/nn/kernel.hpp) start
// every buffer on a full cache line; the kernels themselves still use
// unaligned loads (interior slices of a tensor are not aligned), so
// alignment is a performance property, never a correctness requirement.
//
// Storage reuse: blocks of up to kBlockCacheMaxBlock bytes are recycled
// through a small per-thread cache of recently freed blocks (at most
// kBlockCacheBytes per thread) instead of going back to the system
// allocator. An autograd step allocates and frees the same few hundred
// small buffers every iteration, and aligned operator new is the slow
// memalign path, so recycling removes much of nn's per-op cost. Reuse
// cannot change a computed bit: a std::vector initializes every element it
// exposes, so a recycled block's old bytes are never read, and no kernel's
// result depends on a buffer's address. A block may be freed on any thread
// (it joins the freeing thread's cache), also after the thread that
// allocated it has exited; a thread's cache is released when it exits.

#include <cstddef>
#include <vector>

namespace clo::util {

/// Largest block, in bytes, the per-thread cache recycles.
inline constexpr std::size_t kBlockCacheMaxBlock = 16 * 1024;
/// Bytes one thread's cache may hold at once; frees past it go straight
/// back to the system allocator.
inline constexpr std::size_t kBlockCacheBytes = 128 * 1024;
/// Alignment of every block the cache hands out.
inline constexpr std::size_t kBlockCacheAlignment = 64;

/// A 64-byte-aligned block of at least `bytes` bytes (bytes > 0), from the
/// calling thread's cache when it holds one of the same size class.
void* block_alloc(std::size_t bytes);
/// Return a block_alloc block; `bytes` must be the size it was asked with.
void block_free(void* p, std::size_t bytes) noexcept;
/// Bytes currently held by the calling thread's cache.
std::size_t block_cache_bytes() noexcept;

template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator {
  static_assert((Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "Alignment must be at least the type's natural alignment");
  static_assert(Alignment <= kBlockCacheAlignment,
                "blocks are at most 64-byte aligned");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<T*>(block_alloc(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (p != nullptr) block_free(p, n * sizeof(T));
  }
};

template <typename T, typename U, std::size_t A>
bool operator==(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) {
  return true;
}
template <typename T, typename U, std::size_t A>
bool operator!=(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) {
  return false;
}

/// 64-byte-aligned float buffer — the Tensor storage type.
using AlignedFloats = std::vector<float, AlignedAllocator<float, 64>>;

}  // namespace clo::util
