#pragma once
// Heap-allocation counting owned by the benchmark. alloc_count.cpp
// interposes the C allocation entry points (malloc, calloc, realloc and the
// aligned forms) for the whole process, so it sees every allocation however
// it was requested — through the standard operator new or through any
// replacement the library links in. Counting is off unless enabled, and
// only the traced run enables it. Each thread bumps its own cache-line
// slot, so counting adds no shared-cache-line traffic between threads.

#include <cstdint>

namespace perfbench::alloc {

/// Start or stop counting (process-wide).
void set_counting(bool on);

/// Allocations counted so far, summed over every thread's slot.
std::uint64_t total();

}  // namespace perfbench::alloc
