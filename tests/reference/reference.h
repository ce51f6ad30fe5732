// Reference Saath and Aalo: the schedulers written straight from the
// paper, for obviousness rather than speed. Tests diff the production
// schedulers (src/sched/) against these; the benches use them as the
// from-scratch baselines the incremental paths are measured against. The
// reference engine they pair with lives in reference/engine.h.
//
// Nothing here survives a round except the phase counters. Every
// schedule() reads the CoFlows' own state and recomputes the round from
// scratch, exactly as Fig 7 states it:
//   1. queue assignment (Eq. 1 per-flow thresholds, or Aalo's total bytes;
//      the §4.3 remaining-work estimate for dynamics-flagged CoFlows),
//   2. D5 deadlines d·C_q·t for CoFlows that just entered a queue,
//   3. LCoF keys: k_c from a batch count over the active set,
//   4. one full sort (expired deadlines first, then queue, k_c or arrival,
//      arrival, id),
//   5. all-or-none admission at one equal rate per CoFlow,
//   6. work conservation: every flow of every missed CoFlow, in order,
//      takes what its two ports have left.
// There is no spatial index, OrderIndex, crossing heap or decision cache.
// schedule_valid_until() scans every flow of every CoFlow.
//
// Both report the production scheduler's name(), so result digests of a
// reference run compare directly against the pinned production digests.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "sched/aalo.h"
#include "sched/queue_structure.h"
#include "sched/saath.h"
#include "sim/scheduler.h"

namespace saath::reference {

/// k_c for every entry of `active`, in input order: the number of other
/// CoFlows with the same `group` entry that hold an unfinished flow on a
/// sender port, or a receiver port, on which this CoFlow also holds one.
[[nodiscard]] std::vector<int> batch_contention(
    std::span<CoflowState* const> active, int num_ports,
    std::span<const int> group);

class ReferenceSaath final : public Scheduler {
 public:
  explicit ReferenceSaath(SaathConfig config = {});

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] const SaathPhaseStats& phase_stats() const { return stats_; }

  using Scheduler::schedule;
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override;

  /// The earliest queue-threshold crossing at current rates or unexpired
  /// deadline over every CoFlow; `now` while any CoFlow is on the §4.3
  /// estimate, whose queue can move at any instant.
  [[nodiscard]] SimTime schedule_valid_until(
      SimTime now, std::span<CoflowState* const> active) const override;

 private:
  [[nodiscard]] bool on_estimate(const CoflowState& c) const;
  [[nodiscard]] int queue_for(const CoflowState& c, SimTime now) const;
  [[nodiscard]] bool all_ports_free(const CoflowState& c,
                                    const Fabric& fabric) const;
  void admit_at_equal_rate(CoflowState& c, Fabric& fabric,
                           RateAssignment& rates) const;

  SaathConfig config_;
  QueueStructure queues_;
  SaathPhaseStats stats_;
};

class ReferenceAalo final : public Scheduler {
 public:
  explicit ReferenceAalo(AaloConfig config = {});

  [[nodiscard]] std::string name() const override { return "aalo"; }

  using Scheduler::schedule;
  /// Queue by total bytes sent (never promoting), sort by (queue, arrival,
  /// id), then greedy fair allocation in that order.
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override;

 private:
  QueueStructure queues_;
};

/// Drives `inner` through its full-delta route under an engine: the
/// engine's delta stream is dropped, so every round is a schedule() with no
/// stream, as the testbed and direct callers make it. Lifecycle hooks pass
/// through. schedule_valid_until() asks `triggers` (by default `inner`,
/// which answers `now` when unprimed).
class FullRoute final : public Scheduler {
 public:
  explicit FullRoute(Scheduler& inner) : FullRoute(inner, inner) {}
  FullRoute(Scheduler& inner, const Scheduler& triggers)
      : inner_(inner), triggers_(triggers) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  using Scheduler::schedule;
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override {
    inner_.schedule(now, active, fabric, rates);
  }
  [[nodiscard]] SimTime schedule_valid_until(
      SimTime now, std::span<CoflowState* const> active) const override {
    return triggers_.schedule_valid_until(now, active);
  }
  void on_coflow_arrival(CoflowState& c, SimTime now) override {
    inner_.on_coflow_arrival(c, now);
  }
  void on_flow_complete(CoflowState& c, FlowState& f, SimTime now) override {
    inner_.on_flow_complete(c, f, now);
  }
  void on_coflow_complete(CoflowState& c, SimTime now) override {
    inner_.on_coflow_complete(c, now);
  }
  void on_coflow_quarantined(CoflowState& c, SimTime now) override {
    inner_.on_coflow_quarantined(c, now);
  }

 private:
  Scheduler& inner_;
  const Scheduler& triggers_;
};

/// Drives `inner` on its own route — the engine's delta passes through —
/// but answers schedule_valid_until() with `now`, so the production engine
/// recomputes every epoch instead of skipping the quiescent ones. Lifecycle
/// hooks pass through.
class EveryEpoch final : public Scheduler {
 public:
  explicit EveryEpoch(Scheduler& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override {
    inner_.schedule(now, active, fabric, rates);
  }
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates,
                const SchedulerDelta& delta) override {
    inner_.schedule(now, active, fabric, rates, delta);
  }
  [[nodiscard]] SimTime schedule_valid_until(
      SimTime now, std::span<CoflowState* const> active) const override {
    (void)active;
    return now;
  }
  void on_coflow_arrival(CoflowState& c, SimTime now) override {
    inner_.on_coflow_arrival(c, now);
  }
  void on_flow_complete(CoflowState& c, FlowState& f, SimTime now) override {
    inner_.on_flow_complete(c, f, now);
  }
  void on_coflow_complete(CoflowState& c, SimTime now) override {
    inner_.on_coflow_complete(c, now);
  }
  void on_coflow_quarantined(CoflowState& c, SimTime now) override {
    inner_.on_coflow_quarantined(c, now);
  }

 private:
  Scheduler& inner_;
};

}  // namespace saath::reference
