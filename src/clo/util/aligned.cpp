#include "clo/util/aligned.hpp"

#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define CLO_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define CLO_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define CLO_POISON(p, n) ((void)(p), (void)(n))
#define CLO_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace clo::util {
namespace {

constexpr std::size_t kGranule = kBlockCacheAlignment;
constexpr std::size_t kClasses = kBlockCacheMaxBlock / kGranule;
static_assert(kClasses * kGranule == kBlockCacheMaxBlock);

/// Size class of a cacheable request: class k holds blocks of
/// (k + 1) * 64 bytes, and every cacheable block is allocated at its
/// class size, so a freed block serves any later request of its class.
std::size_t size_class(std::size_t bytes) { return (bytes - 1) / kGranule; }
std::size_t class_bytes(std::size_t k) { return (k + 1) * kGranule; }

bool cacheable(std::size_t bytes) {
  return bytes > 0 && bytes <= kBlockCacheMaxBlock;
}

void* system_alloc(std::size_t bytes) {
  return ::operator new(bytes, std::align_val_t(kBlockCacheAlignment));
}

void system_free(void* p, std::size_t bytes) noexcept {
  ::operator delete(p, bytes, std::align_val_t(kBlockCacheAlignment));
}

/// One thread's recently freed blocks: a LIFO free list per size class,
/// linked through the first bytes of the free blocks themselves. Under
/// AddressSanitizer the rest of a cached block is poisoned, so a stale
/// read or write through a freed buffer is still reported.
struct BlockCache {
  void* heads[kClasses] = {};
  std::size_t bytes = 0;

  BlockCache() = default;
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;
  ~BlockCache();
};

void* next_of(void* block) { return *static_cast<void**>(block); }

/// Set when the thread's cache is destroyed at thread exit. Frees that run
/// later in the exit (other thread_local destructors, or static
/// destructors on the main thread) then bypass the cache. Being trivially
/// destructible, the flag stays readable for the whole exit.
thread_local bool t_cache_gone = false;

BlockCache::~BlockCache() {
  for (std::size_t k = 0; k < kClasses; ++k) {
    for (void* p = heads[k]; p != nullptr;) {
      void* next = next_of(p);
      CLO_UNPOISON(p, class_bytes(k));
      system_free(p, class_bytes(k));
      p = next;
    }
  }
  t_cache_gone = true;
}

/// The calling thread's cache, or nullptr once it has been destroyed.
BlockCache* local_cache() {
  if (t_cache_gone) return nullptr;
  thread_local BlockCache cache;
  return &cache;
}

}  // namespace

void* block_alloc(std::size_t bytes) {
  if (!cacheable(bytes)) return system_alloc(bytes);
  const std::size_t k = size_class(bytes);
  if (BlockCache* c = local_cache(); c != nullptr && c->heads[k] != nullptr) {
    void* p = c->heads[k];
    c->heads[k] = next_of(p);
    c->bytes -= class_bytes(k);
    CLO_UNPOISON(p, class_bytes(k));
    return p;
  }
  return system_alloc(class_bytes(k));
}

void block_free(void* p, std::size_t bytes) noexcept {
  if (!cacheable(bytes)) return system_free(p, bytes);
  const std::size_t k = size_class(bytes);
  BlockCache* c = local_cache();
  if (c == nullptr || c->bytes + class_bytes(k) > kBlockCacheBytes) {
    return system_free(p, class_bytes(k));
  }
  *static_cast<void**>(p) = c->heads[k];
  c->heads[k] = p;
  c->bytes += class_bytes(k);
  CLO_POISON(static_cast<char*>(p) + sizeof(void*),
             class_bytes(k) - sizeof(void*));
}

std::size_t block_cache_bytes() noexcept {
  const BlockCache* c = local_cache();
  return c == nullptr ? 0 : c->bytes;
}

}  // namespace clo::util
