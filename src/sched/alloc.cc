#include "sched/alloc.h"

#include <algorithm>
#include <limits>

#include "common/expect.h"

namespace saath {

double allocate_greedy_fair(CoflowState& c, Fabric& fabric,
                            RateAssignment& rates) {
  double granted = 0;
  // Equal split among the CoFlow's unfinished flows at each sender port.
  // Shares are computed against the budget *before* this CoFlow consumes
  // anything, then each flow is additionally capped by its receiver's
  // live budget (consumed sequentially).
  // Vanishing shares are gated on the fabric-wide epsilon, not on exact
  // zero: a sub-epsilon rate moves no meaningful bytes but would still
  // churn the flow's rate version — and with it trajectory_version()
  // memoization and the crossing heap — every epoch.
  // Each sender slot's flows come from the CSR slot list (its unfinished
  // flows in ascending index — the same order the old filtered full scan
  // visited them) with the trajectory reads on the dense pool arrays.
  const auto flows = c.flows();
  const FlowPool& pool = c.pool();
  const auto loads = c.sender_loads();
  for (std::size_t s = 0; s < loads.size(); ++s) {
    const auto& load = loads[s];
    if (load.unfinished_flows == 0) continue;
    const Rate share = fabric.send_remaining(load.port) / load.unfinished_flows;
    if (share <= Fabric::kRateEpsilon) continue;
    for (const std::uint32_t i : c.sender_slot_flows(s)) {
      FlowState& f = flows[i];
      const Rate r = std::min(share, fabric.recv_remaining(f.dst()));
      if (r <= Fabric::kRateEpsilon) continue;
      rates.set(c, f, pool.rate[i] + r);
      fabric.consume(load.port, f.dst(), r);
      granted += r;
    }
  }
  return granted;
}

bool allocate_madd(CoflowState& c, Fabric& fabric, RateAssignment& rates) {
  const SimTime now = rates.now();
  // Effective bottleneck Γ against remaining budgets: max over ports of
  // (remaining bytes the CoFlow must push through the port) / (budget).
  double gamma = 0;
  const FlowPool& pool = c.pool();
  for (int side = 0; side < 2; ++side) {
    const auto loads = side == 0 ? c.sender_loads() : c.receiver_loads();
    for (std::size_t s = 0; s < loads.size(); ++s) {
      const auto& load = loads[s];
      if (load.unfinished_flows == 0) continue;
      double bytes = 0;
      // CSR slot list: the slot's unfinished flows in ascending index
      // order — the same sequence (and therefore the same sum) as the old
      // filtered scan over all flows.
      const auto slot_flows =
          side == 0 ? c.sender_slot_flows(s) : c.receiver_slot_flows(s);
      for (const std::uint32_t i : slot_flows) {
        bytes += pool.remaining_of(i, now);
      }
      const Rate budget = side == 0 ? fabric.send_remaining(load.port)
                                    : fabric.recv_remaining(load.port);
      if (budget <= Fabric::kRateEpsilon) {
        if (bytes > 0) return false;  // a needed port is exhausted
        continue;
      }
      gamma = std::max(gamma, bytes / budget);
    }
  }
  if (gamma <= 0) return false;

  for (auto& f : c.flows()) {
    if (f.finished()) continue;
    Rate r = f.remaining(now) / gamma;
    r = std::min({r, fabric.send_remaining(f.src()),
                  fabric.recv_remaining(f.dst())});
    if (r <= Fabric::kRateEpsilon) continue;  // same epsilon as every gate
    rates.set(c, f, f.rate() + r);
    fabric.consume(f.src(), f.dst(), r);
  }
  return true;
}

}  // namespace saath
