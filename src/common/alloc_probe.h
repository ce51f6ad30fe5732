// Allocation accounting hook for the steady-state zero-allocation tests.
//
// The hot path's contract (ISSUE 8 / ROADMAP perf trajectory) is that a
// steady-state scheduling epoch — no arrivals, no completions, fixed
// population — performs ZERO heap allocations: RateAssignment's touched
// set, SchedulerDelta's dirty/requeue lists, the indexed CompletionHeap,
// Saath's crossing and deadline TriggerHeaps and the rest of a Saath round
// all recycle capacity across epochs.
//
// The counter itself is always compiled (it is two relaxed atomics of
// overhead only when someone calls it); the *instrumentation* lives in the
// test binary, which overrides global operator new/delete to call
// debug_note_alloc()/debug_note_dealloc(). Production binaries never route
// allocations through here.
#pragma once

#include <cstdint>

namespace saath {

/// Bumps the global allocation counter. Called by instrumented operator
/// new in test binaries; safe from any thread.
void debug_note_alloc() noexcept;

/// Bumps the global deallocation counter.
void debug_note_dealloc() noexcept;

/// Allocations noted so far. A steady-state epoch's delta must be zero.
[[nodiscard]] std::uint64_t debug_alloc_count() noexcept;

/// Deallocations noted so far.
[[nodiscard]] std::uint64_t debug_dealloc_count() noexcept;

}  // namespace saath
