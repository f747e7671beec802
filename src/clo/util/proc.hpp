#pragma once
// Process resource sampling for the telemetry exporter: resident-set-size
// readings from /proc (with a getrusage fallback) and the allocator's own
// count of heap bytes in use (glibc mallinfo2). Everything is read at
// sampling time, so the allocation path itself carries no bookkeeping.
// Sampling is read-only with respect to the computation — it never
// touches an Rng, a lock shared with the hot path, or any model state, so
// the determinism contract is unaffected.

#include <cstdint>

namespace clo::util::proc {

/// Peak resident set size in bytes (VmHWM from /proc/self/status, falling
/// back to getrusage's ru_maxrss). 0 when neither source is available.
std::uint64_t peak_rss_bytes();

/// Current resident set size in bytes (/proc/self/statm). 0 when
/// unavailable.
std::uint64_t current_rss_bytes();

/// Heap bytes currently allocated and not yet freed, as the C allocator
/// reports them (glibc mallinfo2: arena plus mmap-backed blocks, all
/// arenas; the sanitizer allocator's count in ASan builds).
std::uint64_t heap_in_use_bytes();

/// Set the "proc.*" gauges (peak/current RSS, heap in use) on the
/// global metrics registry. Called by the exporter before each snapshot;
/// callable directly for one-shot reports.
void sample_into_registry();

}  // namespace clo::util::proc
