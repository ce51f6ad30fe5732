// EngineSnapshot <-> stream serialization (crash-recovery persistence).
//
// The format is line-oriented text like the journal's: integers in decimal,
// doubles in C hexfloat (bit-exact round trips — the restored flow
// trajectories must be the *same bits* the interrupted run carried, or the
// µs-rounded completion instants drift and the resumed digest diverges).
// save_checkpoint() is written atomically in one pass and ends with an END
// sentinel, so a torn write (kill mid-checkpoint) is detected at load, not
// silently resumed from.
//
// The `N` line counts each section in order: active, quarantined, gates,
// injected arrivals, pending dynamics, capacity factors, completed. The
// fourth and fifth counts held arrivals injected and dynamics registered
// through engine side channels that no longer exist: they are written as 0
// and a checkpoint with either count nonzero is rejected, so checkpoints
// written before and after the removal keep one layout.
#pragma once

#include <iosfwd>

#include "sim/snapshot.h"

namespace saath::replay {

void save_checkpoint(std::ostream& out, const EngineSnapshot& snap);

/// Throws std::runtime_error on malformed or truncated input.
[[nodiscard]] EngineSnapshot load_checkpoint(std::istream& in);

}  // namespace saath::replay
