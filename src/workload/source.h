// Streaming workload input (the online-arrival surface of §4.1/§4.3).
//
// A WorkloadSource is a pull-based, time-ordered stream of WorkloadEvents —
// CoFlow arrivals, cluster dynamics, and data-availability flips — that the
// simulation engine merges lazily into its epoch loop. Nothing about a
// source requires the full workload to be materialized: a TraceSource
// replays a pre-built Trace, a SynthSource draws CoFlows on demand over an
// unbounded horizon with O(1) memory per pending arrival, and a DagSource
// releases job stages reactively as upstream CoFlows complete.
//
// Ordering invariant every source must uphold (the engine spot-checks it):
//   * successive next() calls return events with non-decreasing `time`;
//   * arrival events at the same `time` are emitted in ascending CoflowId.
// Reactive sources may grow new events after on_coflow_complete(), but only
// at times >= the completion instant, so the invariant survives feedback.
//
// peek_next_time() == kNever means "no event available now". For a finite
// source that is exhaustion; for a reactive source more events may appear
// after the next completion notification — the engine treats a kNever peek
// with no live CoFlows as end of input, which is correct because
// completions (the only stimulus) have all been delivered by then.
#pragma once

#include <string>

#include "coflow/coflow.h"
#include "sim/dynamics.h"
#include "sim/result.h"

namespace saath::workload {

struct WorkloadEvent {
  enum class Kind {
    /// A CoFlow arrives; `coflow.arrival == time`.
    kArrival,
    /// A cluster dynamics event (failure / straggler); `dynamics.time == time`.
    kDynamics,
    /// The shuffle data of CoFlow `gated` materializes at `time` (§4.3
    /// pipelining) — until then spatially-aware schedulers skip it.
    kDataAvailable,
  };

  Kind kind = Kind::kArrival;
  SimTime time = 0;
  CoflowSpec coflow;       // kArrival
  DynamicsEvent dynamics;  // kDynamics
  CoflowId gated;          // kDataAvailable
  /// kArrival only: instant the CoFlow's data becomes available. <= time
  /// means immediately; kNever means "gated until an explicit
  /// kDataAvailable event releases it".
  SimTime data_ready = 0;

  [[nodiscard]] static WorkloadEvent arrival(CoflowSpec spec) {
    WorkloadEvent ev;
    ev.kind = Kind::kArrival;
    ev.time = spec.arrival;
    ev.coflow = std::move(spec);
    return ev;
  }
  [[nodiscard]] static WorkloadEvent dynamics_at(DynamicsEvent d) {
    WorkloadEvent ev;
    ev.kind = Kind::kDynamics;
    ev.time = d.time;
    ev.dynamics = d;
    return ev;
  }
  [[nodiscard]] static WorkloadEvent data_available(CoflowId id, SimTime when) {
    WorkloadEvent ev;
    ev.kind = Kind::kDataAvailable;
    ev.time = when;
    ev.gated = id;
    return ev;
  }
};

class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// Port count of the fabric this workload targets.
  [[nodiscard]] virtual int num_ports() const = 0;

  /// Time of the next event, or kNever when none is available (see the
  /// header comment for reactive-source semantics). Must be stable across
  /// repeated calls with no intervening next()/on_coflow_complete().
  [[nodiscard]] virtual SimTime peek_next_time() = 0;

  /// Pops the next event. Only valid when peek_next_time() != kNever.
  [[nodiscard]] virtual WorkloadEvent next() = 0;

  /// Completion feedback the engine delivers for every finished CoFlow.
  /// Reactive sources (DagSource) override to release dependent work;
  /// events created here must carry time >= `now`.
  virtual void on_coflow_complete(const CoflowRecord& rec, SimTime now) {
    (void)rec;
    (void)now;
  }
};

}  // namespace saath::workload
