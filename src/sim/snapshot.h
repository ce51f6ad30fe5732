// Engine checkpoint state (crash recovery for long-lived runs).
//
// An EngineSnapshot is a value-type capture of everything a fresh Engine
// needs to continue an interrupted run bit-identically: the clock and
// round counters, every live CoflowState's *exact* flow trajectories
// (base/rate/anchor/predicted-finish bits, no re-fold and no µs
// re-rounding), the scheduler-owned annotations, data-availability gates,
// fabric derating factors, quarantine state, and the completed records so
// far. Pending input needs no section: every input is a source event, and
// the journal suffix past `source_events_consumed` re-feeds it. Paired
// with the suffix of a recorded event journal (replay::ReplaySource
// skipped past `source_events_consumed`), restore_snapshot() + run()
// converges to the same result digest as the uninterrupted run — the
// invariants that make this exact are documented in ROADMAP.md's
// "Record/replay fencing" note.
//
// The struct lives in sim/ (the Engine produces and consumes it);
// serialization to and from streams lives in replay/checkpoint.h so the
// engine does not depend on a file format.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "coflow/coflow.h"
#include "sim/result.h"

namespace saath {

/// Exact trajectory bits of one FlowState at the snapshot instant.
struct FlowSnapshot {
  double sent_base = 0;
  Rate rate = 0;
  SimTime anchor = 0;
  SimTime predicted_finish = kNever;
  bool finished = false;
  SimTime finish_time = kNever;
};

/// One live (or quarantined) CoFlow: its immutable spec, the flow-id base
/// it was admitted under, the scheduler/engine annotations, and per-flow
/// trajectories in flow order.
struct CoflowSnapshot {
  CoflowSpec spec;
  std::int64_t first_flow_id = 0;
  int queue_index = 0;
  SimTime queue_entered_at = 0;
  SimTime deadline = kNever;
  bool dynamics_flagged = false;
  bool data_available = true;
  int stall_rounds = 0;
  int requeue_attempts = 0;
  std::vector<FlowSnapshot> flows;
};

struct QuarantineSnapshot {
  CoflowSnapshot coflow;
  SimTime release_at = 0;
};

struct EngineSnapshot {
  /// Compatibility fences: restore refuses a snapshot taken under a
  /// different scheduler or fabric width.
  std::string scheduler;
  std::string trace;
  int num_ports = 0;

  SimTime now = 0;
  int rounds = 0;
  std::int64_t epochs = 0;
  std::int64_t next_flow_id = 0;
  /// Source events already pulled — the skip count for the journal suffix.
  std::int64_t source_events_consumed = 0;
  SimTime last_source_time = 0;
  std::int64_t last_arrival_id = 0;
  SimTime makespan = 0;

  /// Live CoFlows in active-list (admission) order.
  std::vector<CoflowSnapshot> active;
  std::vector<QuarantineSnapshot> quarantined;
  /// Pending data-availability gates (id -> release instant, kNever = open
  /// question until an explicit release event).
  std::vector<std::pair<std::int64_t, SimTime>> data_gates;
  /// Non-nominal port derating factors (straggler state persists).
  std::vector<std::pair<PortIndex, double>> capacity_factors;
  /// Completed records so far (record_results runs only).
  std::vector<CoflowRecord> completed;
};

}  // namespace saath
