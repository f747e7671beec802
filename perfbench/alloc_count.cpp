#include "alloc_count.hpp"

#include <atomic>
#include <cerrno>
#include <cstddef>

// glibc's own implementations, which the interposers below forward to.
extern "C" {
void* __libc_malloc(std::size_t size);
void* __libc_calloc(std::size_t count, std::size_t size);
void* __libc_realloc(void* ptr, std::size_t size);
void* __libc_memalign(std::size_t alignment, std::size_t size);
void __libc_free(void* ptr);
}

namespace perfbench::alloc {
namespace {

constexpr int kSlots = 64;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};

std::atomic<bool> g_on{false};
Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};
// Constant-initialized and defined in the executable, so access needs no
// TLS allocation and is safe inside malloc. Threads past kSlots share the
// last slot (its counter is atomic).
thread_local int t_slot = -1;

inline void count_one() {
  if (!g_on.load(std::memory_order_relaxed)) return;
  int slot = t_slot;
  if (slot < 0) {
    slot = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    if (slot >= kSlots) slot = kSlots - 1;
    t_slot = slot;
  }
  g_slots[slot].count.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void set_counting(bool on) { g_on.store(on, std::memory_order_release); }

std::uint64_t total() {
  std::uint64_t sum = 0;
  for (const Slot& s : g_slots) sum += s.count.load(std::memory_order_relaxed);
  return sum;
}

}  // namespace perfbench::alloc

using perfbench::alloc::count_one;

extern "C" {

void* malloc(std::size_t size) {
  count_one();
  return __libc_malloc(size);
}

void* calloc(std::size_t count, std::size_t size) {
  count_one();
  return __libc_calloc(count, size);
}

void* realloc(void* ptr, std::size_t size) {
  count_one();
  return __libc_realloc(ptr, size);
}

void free(void* ptr) { __libc_free(ptr); }

void* memalign(std::size_t alignment, std::size_t size) {
  count_one();
  return __libc_memalign(alignment, size);
}

void* aligned_alloc(std::size_t alignment, std::size_t size) {
  count_one();
  return __libc_memalign(alignment, size);
}

int posix_memalign(void** out, std::size_t alignment, std::size_t size) {
  if (alignment < sizeof(void*) || (alignment & (alignment - 1)) != 0) {
    return EINVAL;
  }
  count_one();
  void* p = __libc_memalign(alignment, size);
  if (p == nullptr && size != 0) return ENOMEM;
  *out = p;
  return 0;
}

}  // extern "C"
