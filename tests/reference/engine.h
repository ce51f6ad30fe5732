// Reference engine: the epoch loop that sim/engine.h describes, written for
// obviousness rather than speed. Tests diff the production engine against
// it; bench/engine_core times it as the baseline of its advance gates.
//
// Every δ it
//   1. pulls every source event due by now,
//   2. admits the due arrivals in stream order, each gated until its data
//      is ready (§4.3), then opens the gates whose release time passed,
//   3. applies the due dynamics in stream order,
//   4. zeroes every rate and calls the scheduler's 4-arg schedule(), which
//      carries no delta, so delta-aware schedulers take their full route,
//   5. zeroes the rates of gated CoFlows (the slot is wasted, the budget
//      the scheduler spent is not refunded),
//   6. checks every port's budget against a sum over all flows,
//   7. advances by scanning every unfinished flow for the earliest
//      predicted finish and completing every flow due by then, until the
//      epoch ends.
// There is no completion heap, no touched-flow bookkeeping, no dirty set
// and no quiescent-epoch skip: every epoch is scheduled. It keeps the
// production engine's epoch rules: when nothing is live it jumps to the
// next input, and reallocate_on_completion re-schedules mid-epoch, without
// ingesting, when a CoFlow finishes.
//
// It covers the runs the tests diff: trusted input, materialized results,
// no stall detector. The constructor rejects a config that turns on
// quarantine (max_stall_epochs), tolerant input (strict_input = false) or
// streaming reclamation (record_results = false).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "sim/engine.h"
#include "trace/trace.h"
#include "workload/source.h"

namespace saath::reference {

struct ReferenceEngineStats {
  /// schedule() calls: one per epoch, plus mid-epoch re-schedules.
  int rounds = 0;
  std::int64_t flow_completions = 0;
  /// Wall time of the scan advance (completion search and harvest).
  std::int64_t advance_ns = 0;
};

class ReferenceEngine {
 public:
  /// Throws std::invalid_argument on a config outside the covered runs.
  ReferenceEngine(std::shared_ptr<workload::WorkloadSource> source,
                  Scheduler& scheduler, SimConfig config = {});
  ReferenceEngine(trace::Trace trace, Scheduler& scheduler,
                  SimConfig config = {});

  /// Runs until the source is exhausted and every CoFlow finished.
  [[nodiscard]] SimResult run();

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] int scheduling_rounds() const { return stats_.rounds; }
  [[nodiscard]] const ReferenceEngineStats& stats() const { return stats_; }

 private:
  void pull_due_events();
  void admit(CoflowSpec spec, SimTime data_ready);
  void open_due_gates();
  void apply_dynamics(const DynamicsEvent& ev);
  void schedule();
  void check_capacity() const;
  void advance_until(SimTime epoch_end);
  [[nodiscard]] SimTime earliest_finish() const;
  void complete_due_flows(SimTime at);
  void finalize(CoflowState& coflow, SimTime at);

  std::shared_ptr<workload::WorkloadSource> source_;
  Scheduler& scheduler_;
  SimConfig config_;
  Fabric fabric_;

  /// Every CoFlow ever admitted; states live until the engine dies, as in
  /// a production run that materializes results.
  std::vector<std::unique_ptr<CoflowState>> coflows_;
  /// Unfinished CoFlows in admission order.
  std::vector<CoflowState*> active_;
  /// Due events of this epoch, in stream order.
  std::vector<workload::WorkloadEvent> due_arrivals_;
  std::vector<DynamicsEvent> due_dynamics_;
  /// Release instant of each gated live CoFlow (kNever: until a
  /// kDataAvailable event names it).
  std::map<std::int64_t, SimTime> gate_until_;
  /// Earliest kDataAvailable instant seen for a CoFlow not live yet.
  std::map<std::int64_t, SimTime> early_release_;

  SimResult result_;
  ReferenceEngineStats stats_;
  SimTime now_ = 0;
  SimTime last_event_time_ = 0;
  std::int64_t next_flow_id_ = 0;
};

/// Builds a reference engine and runs the workload through it.
[[nodiscard]] SimResult reference_simulate(
    std::shared_ptr<workload::WorkloadSource> source, Scheduler& scheduler,
    const SimConfig& config = {});
[[nodiscard]] SimResult reference_simulate(const trace::Trace& trace,
                                           Scheduler& scheduler,
                                           const SimConfig& config = {});

}  // namespace saath::reference
