// Heap allocations counted by the benchmark's own global operator new.
//
// The library is built without its optional allocation hooks, so these
// replacements in the benchmark binary are the only ones linked: every
// `new` on the calling thread bumps a thread-local counter that the
// benchmark reads at step boundaries.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made so far on the calling thread (monotonic).
[[nodiscard]] std::uint64_t allocations() noexcept;

}  // namespace perfbench
