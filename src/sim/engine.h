// Discrete-event, flow-level simulation engine.
//
// Time advances between *scheduling epochs* (every δ, the coordinator's
// recomputation interval, §4.1–§5): at each epoch the engine ingests due
// workload events (CoFlow arrivals, dynamics, data-availability flips),
// applies them, and asks the Scheduler for a fresh rate assignment; between
// epochs flows progress as a fluid at fixed rates and completions are
// resolved at their exact (µs-rounded) instants. Matching the paper's
// coordinator semantics, freed bandwidth is NOT re-allocated until the next
// epoch unless `reallocate_on_completion` is set — this is what makes the
// δ-sensitivity experiment (Fig 14c) meaningful.
//
// Input is *streamed*: the engine pulls lazily from a workload::
// WorkloadSource (peek_next_time() merged into the epoch loop), so live
// memory is O(active CoFlows), not O(workload) — a million-CoFlow streaming
// run holds only the live set. Every input (arrivals with their data gates,
// dynamics, data-availability flips, reactive releases) arrives as a source
// event; the Trace constructor wraps the trace in a TraceSource emitting
// arrivals in (arrival, id) order. Completion records can be consumed
// online through a ResultSink instead of materializing a per-CoFlow
// SimResult (SimConfig::record_results = false).
//
// The advance phase is event-driven: flow progress is lazy (closed-form in
// FlowState, nothing is mutated per micro-step), the next completion comes
// from an indexed min-heap holding one predicted finish instant per flow,
// and capacity verification reads per-port accumulators maintained from the
// epoch's touched-flow set. An epoch with no delta since the last
// assignment, an unchanged capacity map and a scheduler vouching (through
// schedule_valid_until) that none of its time-driven triggers fired keeps
// the standing rates instead of recomputing them. The reference engine of
// tests/reference/ runs the same loop with a scan advance, a full-scan
// capacity check and no skip; the tests hold the two bit-identical.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/completion_heap.h"
#include "sim/dynamics.h"
#include "sim/rate_assignment.h"
#include "sim/result.h"
#include "sim/scheduler.h"
#include "sim/snapshot.h"
#include "trace/trace.h"
#include "workload/source.h"

namespace saath {

struct SimConfig {
  Rate port_bandwidth = gbps(1);
  /// Coordinator scheduling interval δ (default 8 ms, §6).
  SimTime delta = msec(8);
  /// If true, a flow completion triggers an immediate re-schedule instead of
  /// waiting for the next epoch (idealized coordinator).
  bool reallocate_on_completion = false;
  /// Materialize one CoflowRecord per CoFlow in the returned SimResult.
  /// Streaming runs over huge sources set this false and attach a
  /// ResultSink instead — completions are aggregated online and SimResult
  /// carries only run-level fields (makespan, names). It decides nothing
  /// else: under either value a finished CoFlow's state is destroyed at
  /// the end of the scheduling round that consumes its completion delta
  /// (after the scheduler's caches have re-fenced; the completion heap
  /// holds no entry of a finished CoFlow), keeping memory O(live CoFlows)
  /// over unbounded horizons. Schedulers must not retain CoflowState
  /// pointers past that round — Saath (and so Aalo) drops them at
  /// on_coflow_complete.
  bool record_results = true;
  /// Runaway guard: the run throws if simulated time passes this. Also the
  /// horizon bound for unbounded sources (e.g. SynthSource with
  /// num_coflows < 0).
  SimTime max_sim_time = seconds(500'000);
  /// Graceful degradation: a CoFlow that sits schedulable (data available)
  /// yet fully unrated for this many consecutive scheduling rounds is
  /// *quarantined* — detached from the scheduler, parked, and re-admitted
  /// after an exponential backoff. 0 (default) disables the detector
  /// entirely; runs without it are byte-identical to the pre-quarantine
  /// engine.
  int max_stall_epochs = 0;
  /// Quarantine re-admissions granted before the CoFlow is abandoned
  /// (reported in EngineStats::abandoned_coflow_ids, never finished).
  int max_requeue_attempts = 3;
  /// Input validation posture. true (default): any violation of the
  /// WorkloadSource contract (ordering, malformed specs, bad dynamics)
  /// aborts via SAATH_EXPECTS — correct for trusted generators. false:
  /// violations become typed InputFault records in EngineStats and the
  /// offending event is dropped; the run continues on the valid prefix of
  /// the stream (fault-injection and untrusted-trace runs).
  bool strict_input = true;
};

/// One tolerated workload-input anomaly (SimConfig::strict_input = false):
/// what was wrong, when it was pulled, and which CoFlow/port it named.
struct InputFault {
  enum class Kind {
    kOutOfOrder,       // event time went backwards
    kTieOrder,         // same-time arrivals out of CoflowId order
    kDuplicateId,      // CoflowId already admitted this run
    kMalformedSpec,    // empty flow set / negative size / bad port
    kArrivalMismatch,  // coflow.arrival != event time
    kBadDynamics,      // port out of range or capacity factor outside [0,1]
  };
  Kind kind = Kind::kMalformedSpec;
  SimTime time = 0;
  std::int64_t id = -1;  // CoflowId when the event named one
  std::string detail;
};

/// Wall-clock phase costs and event counts of one run, for the
/// bench/engine_core and bench/workload_stream perf trajectories.
struct EngineStats {
  std::int64_t schedule_ns = 0;  // compute_schedule (incl. scheduler time)
  std::int64_t advance_ns = 0;   // advance_until (completion resolution)
  std::int64_t flow_completions = 0;
  std::int64_t heap_pushes = 0;
  /// Run-loop iterations (epochs), including quiescent-skipped ones.
  std::int64_t epochs = 0;
  /// Live-set trajectory: max and per-epoch sum of active_.size() right
  /// after admission — peak / (sum/epochs) is the boundedness measure the
  /// streaming bench gates (peak must stay near the steady-state mean).
  std::int64_t peak_live_coflows = 0;
  std::int64_t live_coflow_epoch_sum = 0;
  /// Workload events pulled from the source (arrivals + dynamics + flips).
  std::int64_t source_events = 0;
  std::int64_t arrivals_admitted = 0;
  /// Finished CoflowStates destroyed mid-run, at the end of the round that
  /// consumed their completion delta. Those finishing after the last round
  /// are freed by the Engine's destructor instead.
  std::int64_t reclaimed_coflows = 0;
  /// Workload ingestion (admit_arrivals + process_dynamics) wall time —
  /// with schedule_ns and advance_ns this completes the per-phase
  /// breakdown of the run loop.
  std::int64_t ingest_ns = 0;
  /// Whole-run wall time of run(), the denominator for phase shares.
  std::int64_t run_wall_ns = 0;

  /// Robustness accounting ---------------------------------------------
  /// Source events dropped in tolerant mode (strict_input = false).
  std::int64_t rejected_events = 0;
  /// First kMaxInputFaults dropped events, with the reason (the count in
  /// rejected_events keeps growing past the cap).
  std::vector<InputFault> input_faults;
  static constexpr std::size_t kMaxInputFaults = 64;
  /// Times a stalled CoFlow was detached into quarantine.
  std::int64_t quarantine_events = 0;
  /// Times a quarantined CoFlow was re-admitted after backoff.
  std::int64_t requeue_admissions = 0;
  /// Every CoFlow that was ever quarantined (duplicates per re-entry).
  std::vector<std::int64_t> quarantined_coflow_ids;
  /// CoFlows given up on after max_requeue_attempts — they never finish
  /// and produce no CoflowRecord.
  std::vector<std::int64_t> abandoned_coflow_ids;
  /// Unfinished CoFlows at the moment the max_sim_time runaway guard
  /// fired (empty on clean completion) — filled just before the throw so
  /// post-mortems can name the stuck work programmatically.
  std::vector<std::int64_t> stuck_coflow_ids;
};

/// Lock-free run-progress gauges a monitoring thread may read while run()
/// executes on another thread (the service layer's STATS path). All fields
/// are relaxed atomics: each value is individually coherent but the set is
/// not a consistent cut — fine for telemetry, wrong for control decisions.
struct LiveTelemetry {
  std::atomic<std::int64_t> epochs{0};
  std::atomic<std::int64_t> live_coflows{0};
  std::atomic<std::int64_t> completed_coflows{0};
  std::atomic<std::int64_t> quarantined_now{0};
  std::atomic<std::int64_t> abandoned{0};
  std::atomic<std::int64_t> source_events{0};
  std::atomic<std::int64_t> rejected_events{0};
  std::atomic<SimTime> sim_now{0};
};

class Engine {
 public:
  /// Streams the workload lazily from `source` — the primary constructor.
  Engine(std::shared_ptr<workload::WorkloadSource> source,
         Scheduler& scheduler, SimConfig config = {});
  /// Legacy materialized input: thin wrapper that streams the trace through
  /// a workload::TraceSource (bit-identical to the pre-streaming engine).
  Engine(trace::Trace trace, Scheduler& scheduler, SimConfig config = {});

  /// Streaming consumer of completion records (see ResultSink contract in
  /// sim/result.h). With config.record_results = false this is the only
  /// place per-CoFlow outcomes are observable. Not owned; must outlive run().
  void set_result_sink(ResultSink* sink);

  /// Checkpointing ----------------------------------------------------------
  /// Captures the full resumable state (see sim/snapshot.h). Taken at the
  /// run-loop top (via the snapshot hook) the capture is exact: no event is
  /// staged, no epoch is half-applied. Callable any time for inspection.
  [[nodiscard]] EngineSnapshot make_snapshot() const;
  /// Pre-run only: seeds a fresh engine from a snapshot so run() continues
  /// the interrupted run. The workload source must be positioned past the
  /// snapshot's source_events_consumed (replay::ReplaySource::skip). Throws
  /// std::invalid_argument when the snapshot was taken under a different
  /// scheduler or fabric width. Resumed runs reproduce the uninterrupted
  /// run's SimResult byte-identically (see ROADMAP "Record/replay fencing").
  void restore_snapshot(const EngineSnapshot& snap);
  /// Invoked at the run-loop top every `every_epochs` epochs with a fresh
  /// snapshot (0 disables). The hook owns persistence — the engine never
  /// touches the filesystem.
  using SnapshotHook = std::function<void(const EngineSnapshot&)>;
  void set_snapshot_hook(std::int64_t every_epochs, SnapshotHook hook);

  /// Runs to completion of all CoFlows and returns the per-CoFlow records.
  [[nodiscard]] SimResult run();

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] int scheduling_rounds() const { return rounds_; }
  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  /// Progress gauges safe to read from other threads while run() executes
  /// (relaxed atomics, refreshed once per epoch and at completion events).
  [[nodiscard]] const LiveTelemetry& telemetry() const { return telemetry_; }

 private:
  /// Pops every source event with time <= now into the staging structures
  /// (ordering spot-checks live here). The engine never holds a future
  /// event: a reactive source may grow an *earlier* event off a completion,
  /// so buffering ahead of time would freeze a stale "next".
  void pull_due_source_events();
  /// Admits every due arrival in stream order (time, id), routes due
  /// non-arrival source events, and flips data-availability gates whose
  /// release time passed.
  void admit_arrivals();
  void admit_coflow(CoflowSpec spec, SimTime data_ready);
  /// Applies the due streamed kDynamics events in stream order.
  void process_dynamics();
  void apply_dynamics(const DynamicsEvent& ev);
  void compute_schedule();
  /// Storage reclamation of finished CoFlows (see SimConfig::record_results).
  /// Called at the end of every compute_schedule() that has finished states
  /// parked: by then begin_epoch() folded the previous epoch's touched
  /// flows, the scheduler consumed the delta naming these CoFlows, and its
  /// caches are re-fenced. Each flow's heap entry was popped when the flow
  /// finished, so nothing references the states; this checks that no flow
  /// holds a heap position, then frees them.
  void reclaim_finished();
  void verify_capacity() const;
  /// Advances the fluid model to `epoch_end`, resolving completions exactly.
  void advance_until(SimTime epoch_end);
  /// Completes every flow the heap predicts at or before `at`, then, when
  /// that finished a CoFlow, finalizes the finished ones (stable compaction
  /// of the active list, which keeps admission order).
  void harvest_completions(SimTime at);
  void complete_flow(CoflowState& coflow, FlowState& flow, SimTime at);
  void finalize_coflow(CoflowState& coflow, SimTime at);
  /// Pushes every flow of `coflow` to the completion heap (admission,
  /// post-restart, re-admission): a flow with a finite predicted finish
  /// gets its entry there, any other loses its entry.
  void push_completion_events(CoflowState& coflow);

  /// Tolerant-mode fault accounting (strict_input = false): counts the
  /// drop and records the first kMaxInputFaults with reasons.
  void record_input_fault(InputFault::Kind kind, SimTime time,
                          std::int64_t id, std::string detail);
  /// Refreshes the LiveTelemetry gauges from engine-thread state (relaxed
  /// stores; called at the loop top and on completion-count changes).
  void publish_telemetry();
  /// Quarantine machinery (SimConfig::max_stall_epochs > 0) ---------------
  /// After a scheduling round: ticks stall counters, detaches CoFlows that
  /// crossed the threshold (scheduler hook + backoff park or abandonment).
  /// While any CoFlow is mid-stall the next epoch recomputes rather than
  /// skips, so the counter ticks once per epoch.
  void update_quarantine();
  /// Re-admits every quarantined CoFlow whose backoff expired (loop top).
  void release_quarantined();
  [[nodiscard]] SimTime next_quarantine_release() const;

  /// Checkpoint internals --------------------------------------------------
  [[nodiscard]] CoflowSnapshot snapshot_coflow(const CoflowState& c) const;
  /// Rebuilds a CoflowState from its snapshot: fresh construction, then
  /// exact trajectory-bit restore and RateAssignment adoption of standing
  /// rates (requires an open epoch — restore_snapshot begins one).
  [[nodiscard]] std::unique_ptr<CoflowState> rebuild_coflow(
      const CoflowSnapshot& cs);

  std::shared_ptr<workload::WorkloadSource> source_;
  Scheduler& scheduler_;
  SimConfig config_;
  Fabric fabric_;
  /// The one gateway for rate changes: records touched flows for the
  /// completion heap and keeps the per-port allocation accumulators.
  RateAssignment rates_;
  CompletionHeap heap_;

  /// Due source arrivals staged this epoch, in stream order (time, id).
  struct StagedArrival {
    CoflowSpec spec;
    SimTime data_ready = 0;
  };
  std::vector<StagedArrival> staged_arrivals_;
  /// Ordering spot-check state for the source invariant. Only *pulled*
  /// events are checked: the engine pulls strictly in due order, so any
  /// non-monotone emission a source could make visible shows up here.
  SimTime last_source_time_ = 0;
  std::int64_t last_arrival_id_ = std::numeric_limits<std::int64_t>::min();

  /// Ownership of every live CoflowState, keyed by pointer so streaming
  /// reclamation can extract a finished CoFlow's storage in O(1).
  std::unordered_map<const CoflowState*, std::unique_ptr<CoflowState>>
      owned_coflows_;
  /// Finished states awaiting the next safe reclamation point (the end of
  /// the scheduling round that consumes their completion delta).
  std::vector<std::unique_ptr<CoflowState>> graveyard_;
  std::vector<CoflowState*> active_;
  /// Due kDynamics events of this epoch's pull, in stream order, awaiting
  /// process_dynamics().
  std::vector<DynamicsEvent> due_dynamics_;
  /// Gate-release instants; kNever = gated until an explicit
  /// kDataAvailable event arrives.
  std::unordered_map<CoflowId, SimTime> data_available_at_;
  ResultSink* sink_ = nullptr;

  /// Stalled CoFlows detached from scheduling, awaiting their backoff
  /// release (admission order preserved within the list).
  struct Quarantined {
    std::unique_ptr<CoflowState> state;
    SimTime release_at = 0;
  };
  std::vector<Quarantined> quarantined_;
  /// Tolerant mode only: every admitted CoflowId, for duplicate rejection.
  std::unordered_set<std::int64_t> admitted_ids_;
  SnapshotHook snapshot_hook_;
  std::int64_t snapshot_every_ = 0;

  /// Dirty-set handed to the scheduler at each compute_schedule(): every
  /// CoFlow whose state changed since the previous call (arrivals,
  /// completions, dynamics, data flips) is marked, so delta-aware
  /// schedulers re-key only those. Cleared after each handoff.
  SchedulerDelta delta_;

  LiveTelemetry telemetry_;
  std::int64_t completed_count_ = 0;

  SimResult result_;
  EngineStats stats_;
  SimTime now_ = 0;
  int rounds_ = 0;
  /// Delta tracking for the quiescent-epoch skip: any state change since
  /// the last compute_schedule() forces a recompute at the next epoch.
  bool schedule_dirty_ = true;
  SimTime schedule_valid_until_ = 0;
  std::uint64_t scheduled_capacity_version_ = 0;
  std::int64_t next_flow_id_ = 0;
  bool running_ = false;
};

/// Convenience wrappers: build an engine and run the workload through the
/// scheduler with the given config.
[[nodiscard]] SimResult simulate(const trace::Trace& trace, Scheduler& scheduler,
                                 const SimConfig& config = {});
[[nodiscard]] SimResult simulate(std::shared_ptr<workload::WorkloadSource> source,
                                 Scheduler& scheduler,
                                 const SimConfig& config = {});

}  // namespace saath
