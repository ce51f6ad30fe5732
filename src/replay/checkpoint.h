// EngineSnapshot <-> stream serialization (crash-recovery persistence).
//
// The format is line-oriented text like the journal's: one record per
// line, integers in decimal, doubles in C hexfloat (bit-exact round trips
// — the restored flow trajectories must be the *same bits* the
// interrupted run carried, or the µs-rounded completion instants drift and
// the resumed digest diverges). save_checkpoint() is written atomically in
// one pass and ends with an END sentinel, so a torn write (kill
// mid-checkpoint) is detected at load, not silently resumed from.
//
// load_checkpoint() reads each line through common/tokens.h, as the
// journal does. Int fields must fit int32, every CoFlow spec passes
// spec_defect against the header's port count, a capacity factor's port
// lies in the fabric and its value in [0, 1], and nothing is reserved for
// a count its lines have not backed.
//
// The `N` line counts each section in order: active, quarantined, gates,
// injected arrivals, pending dynamics, capacity factors, completed. The
// fourth and fifth counts held arrivals injected and dynamics registered
// through engine side channels that no longer exist: they are written as 0
// and a checkpoint with either count nonzero is rejected, so checkpoints
// written before and after the removal keep one layout.
//
// Each CoFlow's `K` line is: first flow id, queue index, a retired slot,
// deadline, dynamics flag, data-available flag, stall rounds, requeue
// attempts. The retired slot held the instant the CoFlow entered its
// queue, which nothing read: it is written as 0 and any value is parsed
// and discarded, so checkpoints that still carry one load unchanged.
#pragma once

#include <iosfwd>

#include "sim/snapshot.h"

namespace saath::replay {

void save_checkpoint(std::ostream& out, const EngineSnapshot& snap);

/// Throws std::runtime_error on malformed or truncated input, naming the
/// line ("checkpoint line N: ...") where there is one.
[[nodiscard]] EngineSnapshot load_checkpoint(std::istream& in);

}  // namespace saath::replay
