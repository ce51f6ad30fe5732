// Testbed emulation (§5, §7 substitute — see DESIGN.md §2).
//
// The paper's prototype deploys a global coordinator and per-port local
// agents on 150 Azure VMs. The deployment artifacts we cannot reproduce are
// replaced by their *observable scheduling semantics*:
//
//   * Pipelining: "in each interval, the coordinator computes a new schedule
//     ... based on the flow stats received during the previous interval" —
//     i.e. every schedule acts on state that is one δ stale, and takes
//     effect one δ after the state it was computed from. PipelinedScheduler
//     reproduces exactly that: the assignment computed at epoch k is applied
//     at epoch k + delay (default 1).
//   * Agents keep the previous schedule until a new one arrives: during the
//     delay window the old rates stay in force (capped by live capacity).
//   * Coordinator failure: the coordinator is stateless; a crash costs the
//     affected epochs' schedules (agents coast on the old one) and resets
//     Saath's starvation deadlines. Modeled by dropping the in-flight
//     assignments for the outage window.
#pragma once

#include <deque>
#include <optional>
#include <unordered_map>

#include "sim/engine.h"
#include "sim/scheduler.h"

namespace saath::runtime {

struct TestbedConfig {
  SimConfig sim;
  /// Epochs between computing an assignment and agents enacting it (>= 0;
  /// 0 collapses to the idealized simulator).
  int schedule_delay_epochs = 1;
  /// Coordinator outage window [start, end): computed schedules are lost,
  /// agents keep applying the last delivered one.
  SimTime coordinator_down_from = kNever;
  SimTime coordinator_down_until = kNever;
};

/// Scheduler decorator implementing the delayed/pipelined delivery.
class PipelinedScheduler final : public Scheduler {
 public:
  PipelinedScheduler(Scheduler& inner, const TestbedConfig& config);

  [[nodiscard]] std::string name() const override {
    return inner_.name() + "+testbed";
  }

  using Scheduler::schedule;
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override;

  void on_coflow_arrival(CoflowState& coflow, SimTime now) override {
    inner_.on_coflow_arrival(coflow, now);
  }
  void on_flow_complete(CoflowState& coflow, FlowState& flow,
                        SimTime now) override {
    inner_.on_flow_complete(coflow, flow, now);
  }
  void on_coflow_complete(CoflowState& coflow, SimTime now) override {
    inner_.on_coflow_complete(coflow, now);
  }
  void on_coflow_quarantined(CoflowState& coflow, SimTime now) override {
    inner_.on_coflow_quarantined(coflow, now);
  }

 private:
  using Assignment = std::unordered_map<FlowId, Rate>;

  [[nodiscard]] bool coordinator_down(SimTime now) const;
  void apply(const Assignment& assignment,
             std::span<CoflowState* const> active, Fabric& fabric,
             RateAssignment& rates) const;

  Scheduler& inner_;
  TestbedConfig config_;
  std::deque<Assignment> in_flight_;
  Assignment last_delivered_;
  /// Scratch view the inner scheduler's tentative pass writes through; its
  /// rates are discarded before the delivered assignment is enacted.
  RateAssignment tentative_;
  /// The tentative pass's fabric: nominal budgets on every port, reset()
  /// each round and rebuilt only when the port count or bandwidth changes.
  std::optional<Fabric> scratch_;
};

/// Runs `trace` through `inner` under testbed semantics.
[[nodiscard]] SimResult run_testbed(const trace::Trace& trace, Scheduler& inner,
                                    const TestbedConfig& config = {});

}  // namespace saath::runtime
