// Scheduler interface the simulation engine drives.
//
// Once per scheduling epoch (every δ, §4.1) the engine hands the scheduler
// the set of active CoFlows, a Fabric whose budgets have been reset, and a
// RateAssignment view; the scheduler assigns rates through the view (0 is
// allowed) while respecting port budgets via Fabric::consume. The view is
// what makes the event-driven core work: it records exactly which flows
// changed rate, so the engine refreshes completion events for those flows
// only — there is no per-epoch zeroing loop and no wholesale rescan.
//
// All flows start each epoch at rate 0: the engine's RateAssignment zeroes
// the previous epoch's rated flows in begin_epoch(), and the convenience
// overload below gives direct drivers (unit tests, benchmarks) the same
// blank slate.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "coflow/coflow.h"
#include "fabric/fabric.h"
#include "sim/rate_assignment.h"

namespace saath {

namespace parallel {
class ThreadPool;
}

/// Dirty-set the engine accumulates between scheduling epochs and hands to
/// delta-aware schedulers: exactly which CoFlows' simulation state changed
/// since the last schedule() call, so incremental schedulers re-key only
/// those in their maintained structures instead of rescanning the world.
///
/// Invariant the producer must uphold: between two schedule() calls
/// carrying the same nonzero `stream_id`, every CoFlow whose
/// state mutated (arrival, flow/CoFlow completion, dynamics restart or
/// straggler flag, data-availability flip) appears in `dirty`. Duplicates
/// and already-finished CoFlows are allowed; consumers dedup and skip.
/// Port-capacity changes are NOT reported here — schedulers watch
/// Fabric::capacity_version() for those.
struct SchedulerDelta {
  /// Identifies the delta stream (one per Engine run). The lists below
  /// cover only what changed since the previous round of the same stream,
  /// so a round whose stream id is new (e.g. a scheduler reused across two
  /// Engine instances, or resumed from a checkpoint) must not read them as
  /// the whole change: Saath then takes every CoFlow as a candidate. 0 (the
  /// default) means unknown provenance (direct drivers, tests), treated
  /// the same way every round. What a scheduler learned from the lifecycle
  /// hooks below holds either way.
  std::uint64_t stream_id = 0;
  /// CoFlows whose state changed since the last schedule() of this stream
  /// in ways that cannot move their queue metric (arrivals, completions,
  /// data-availability flips): consumers must re-fence cached decisions
  /// but may keep the CoFlow's queue placement.
  std::vector<CoflowState*> dirty;
  /// CoFlows whose queue metric itself may have moved outside the fluid
  /// model (dynamics: restarts lose progress, straggler flags arm the §4.3
  /// SRTF estimate): consumers must re-bucket these.
  std::vector<CoflowState*> requeue;

  void mark(CoflowState* c) { dirty.push_back(c); }
  void mark_requeue(CoflowState* c) { requeue.push_back(c); }
  void clear_marks() {
    dirty.clear();
    requeue.clear();
  }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Computes the rate assignment for this epoch through `rates`.
  virtual void schedule(SimTime now, std::span<CoflowState* const> active,
                        Fabric& fabric, RateAssignment& rates) = 0;

  /// Delta-aware entry point the engine drives: `delta` scopes exactly
  /// which CoFlows changed since the previous call, letting incremental
  /// schedulers skip unchanged state. The default ignores the delta and
  /// runs the plain epoch — schedulers opt in by overriding.
  virtual void schedule(SimTime now, std::span<CoflowState* const> active,
                        Fabric& fabric, RateAssignment& rates,
                        const SchedulerDelta& delta) {
    (void)delta;
    schedule(now, active, fabric, rates);
  }

  /// Convenience for direct drivers (tests, benchmarks) without an engine:
  /// zeroes every flow's rate at `now` (blank slate) and runs the epoch
  /// against a scratch RateAssignment. The caller still owes the lifecycle
  /// hooks below. Derived classes re-export it with
  /// `using Scheduler::schedule;`.
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric) {
    RateAssignment scratch;
    scratch.begin_epoch(now);
    for (CoflowState* c : active) {
      for (auto& f : c->flows()) {
        if (!f.finished()) f.set_rate(0, now);
      }
    }
    schedule(now, active, fabric, scratch);
  }

  /// How long the assignment just computed stays valid if NO delta (arrival,
  /// flow/CoFlow completion, dynamics event, data-availability flip,
  /// capacity change) occurs: the engine may skip recomputation epochs while
  /// `now < schedule_valid_until(...)`. Schedulers whose decisions drift
  /// with time alone (queue-threshold crossings, starvation deadlines)
  /// return the earliest such trigger; the default pessimistically requests
  /// recomputation every epoch. Must be conservative — returning a time
  /// *before* the true next trigger only costs a no-op recompute, returning
  /// one after it changes results.
  [[nodiscard]] virtual SimTime schedule_valid_until(
      SimTime now, std::span<CoflowState* const> active) const {
    (void)active;
    return now;
  }

  /// No-op, kept because coordbench's TimedScheduler overrides and calls it.
  virtual void set_parallelism(parallel::ThreadPool* pool, int shards) {
    (void)pool;
    (void)shards;
  }

  /// Lifecycle hooks. They are part of the contract, not optional
  /// notifications: whoever calls schedule() — the engine, a test, a
  /// benchmark — fires
  ///   * on_coflow_arrival before the first round whose `active` lists the
  ///     CoFlow, exactly once per admission;
  ///   * on_flow_complete right after CoflowState::on_flow_complete, once
  ///     per completed flow;
  ///   * on_coflow_complete or on_coflow_quarantined before the CoFlow
  ///     leaves `active`.
  /// Schedulers that keep per-CoFlow state (Saath's spatial index and
  /// queue populations) learn membership and occupancy from these calls
  /// alone, and abort on a caller that skipped one. A decorator wrapping
  /// another scheduler forwards all four. The defaults do nothing.
  virtual void on_coflow_arrival(CoflowState& coflow, SimTime now) {
    (void)coflow;
    (void)now;
  }
  virtual void on_flow_complete(CoflowState& coflow, FlowState& flow,
                                SimTime now) {
    (void)coflow;
    (void)flow;
    (void)now;
  }
  virtual void on_coflow_complete(CoflowState& coflow, SimTime now) {
    (void)coflow;
    (void)now;
  }
  /// The engine is detaching a stuck-but-unfinished CoFlow from the
  /// schedulable set (graceful degradation under faults — see
  /// SimConfig::max_stall_epochs). Schedulers maintaining per-CoFlow
  /// structures must drop it exactly as a completion would; it may be
  /// re-announced later through on_coflow_arrival when the engine
  /// re-admits it after backoff.
  virtual void on_coflow_quarantined(CoflowState& coflow, SimTime now) {
    (void)coflow;
    (void)now;
  }
};

}  // namespace saath
