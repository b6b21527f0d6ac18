// Heap-allocation counter: this binary replaces the global operator new
// family, and every successful allocation bumps a per-thread counter.  The
// benchmark is single-threaded, so the main thread's count is the count.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made by the calling thread since it started.
[[nodiscard]] std::uint64_t allocations();

}  // namespace perfbench
