// Aalo baseline (Chowdhury & Stoica, SIGCOMM 2015) as the Saath paper
// models it (§2.2): a global coordinator assigns CoFlows to K priority
// queues by *total bytes sent*; ports enumerate queues from highest to
// lowest priority and serve CoFlows within a queue in FIFO (arrival) order.
// Aalo is oblivious to the spatial dimension: flows are allocated greedily
// with no all-or-none gate and no contention awareness.
//
// The schedule phase adopts the same delta-driven machinery as Saath's:
// when the engine supplies precise SchedulerDeltas, queue demotions pop
// from a QueueCrossingHeap (programmed off the closed-form flow
// trajectories) instead of re-scanning every CoFlow, the (queue, arrival,
// id) order lives in an OrderIndex, and schedule_valid_until() reads the
// heap top so quiescent epochs can be skipped. Full or unknown-stream
// calls re-bucket and re-sort every CoFlow without priming. The
// from-scratch model both routes are tested against lives in
// tests/reference/.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sched/order_index.h"
#include "sched/queue_structure.h"
#include "sim/scheduler.h"

namespace saath {

struct AaloConfig {
  QueueConfig queues;
};

class AaloScheduler final : public Scheduler {
 public:
  explicit AaloScheduler(AaloConfig config = {});

  [[nodiscard]] std::string name() const override { return "aalo"; }

  using Scheduler::schedule;
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override;
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates,
                const SchedulerDelta& delta) override;

  /// Earliest queue-threshold crossing at current rates: Aalo's ordering
  /// inputs (total bytes sent per CoFlow) drift only through those, so the
  /// engine may keep the standing rates until one fires. O(1) off the
  /// crossing heap once primed; `now` (recompute every epoch — the
  /// historical behavior) until then.
  [[nodiscard]] SimTime schedule_valid_until(
      SimTime now, std::span<CoflowState* const> active) const override;

  /// The engine detaches a stuck CoFlow: drop it from the maintained order
  /// and crossing structures (no-ops when unprimed) or the delta path's
  /// order_.size() == active.size() postcondition would trip on the next
  /// round. Re-admission re-inserts it via the membership sync.
  void on_coflow_quarantined(CoflowState& coflow, SimTime now) override;

 private:
  void schedule_full(SimTime now, std::span<CoflowState* const> active,
                     Fabric& fabric, RateAssignment& rates, bool prime);
  void schedule_delta(SimTime now, std::span<CoflowState* const> active,
                      Fabric& fabric, RateAssignment& rates,
                      const SchedulerDelta& delta);

  [[nodiscard]] OrderKey make_key(const CoflowState& c) const;
  /// Predicts c's next total-bytes threshold crossing at current rates and
  /// programs it (kNever cancels). Early-only guard band, like Saath's.
  void program_crossing(CoflowState& c, SimTime now);

  QueueStructure queues_;
  /// Delta-maintained (queue, arrival, id) order + crossing triggers; live
  /// only while primed for the current delta stream.
  OrderIndex order_;
  QueueCrossingHeap crossings_;
  std::uint64_t primed_stream_ = 0;
  /// Scratch.
  std::vector<std::pair<OrderKey, CoflowState*>> sort_scratch_;
};

}  // namespace saath
