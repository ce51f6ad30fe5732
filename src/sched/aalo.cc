#include "sched/aalo.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/expect.h"
#include "sched/alloc.h"

namespace saath {

AaloScheduler::AaloScheduler(AaloConfig config)
    : queues_(config.queues) {}

OrderKey AaloScheduler::make_key(const CoflowState& c) const {
  // Aalo's sort is (queue, arrival, id); expired/deadline never fire and
  // the LCoF slot carries arrival so ties collapse to the same order the
  // old comparator produced.
  OrderKey k;
  k.queue = c.queue_index;
  k.key = static_cast<std::int64_t>(c.arrival());
  k.arrival = c.arrival();
  k.id = c.id();
  return k;
}

void AaloScheduler::program_crossing(CoflowState& c, SimTime now) {
  if (c.finished()) {
    crossings_.erase(c.id());
    return;
  }
  const std::uint64_t traj = c.trajectory_version();
  if (crossings_.current(c.id(), traj, c.queue_index)) return;
  const double cross_seconds = total_bytes_cross_seconds(
      c, queues_.hi_threshold(c.queue_index), now);
  crossings_.program(&c, guarded_crossing_instant(now, cross_seconds), traj,
                     c.queue_index);
}

void AaloScheduler::schedule(SimTime now, std::span<CoflowState* const> active,
                             Fabric& fabric, RateAssignment& rates) {
  schedule(now, active, fabric, rates, SchedulerDelta{});
}

void AaloScheduler::schedule(SimTime now, std::span<CoflowState* const> active,
                             Fabric& fabric, RateAssignment& rates,
                             const SchedulerDelta& delta) {
  if (delta.full || delta.stream_id == 0) {
    primed_stream_ = 0;
    schedule_full(now, active, fabric, rates, /*prime=*/false);
    return;
  }
  if (primed_stream_ != delta.stream_id) {
    schedule_full(now, active, fabric, rates, /*prime=*/true);
    primed_stream_ = delta.stream_id;
    return;
  }
  schedule_delta(now, active, fabric, rates, delta);
}

void AaloScheduler::schedule_full(SimTime now,
                                  std::span<CoflowState* const> active,
                                  Fabric& fabric, RateAssignment& rates,
                                  bool prime) {
  // Queue from total bytes sent. Aalo's metric only grows, so the queue
  // index is monotonically non-decreasing — even after a failure-induced
  // restart shrinks the byte count, Aalo never promotes (the very weakness
  // §4.3 contrasts Saath against), hence the max().
  for (CoflowState* c : active) {
    c->queue_index = std::max(c->queue_index,
                              queues_.queue_for_total_bytes(c->total_sent(now)));
  }

  sort_scratch_.clear();
  sort_scratch_.reserve(active.size());
  for (CoflowState* c : active) sort_scratch_.emplace_back(make_key(*c), c);
  std::sort(sort_scratch_.begin(), sort_scratch_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  for (const auto& [k, c] : sort_scratch_) {
    allocate_greedy_fair(*c, fabric, rates);
  }

  if (prime) {
    order_.rebuild(sort_scratch_);
    crossings_.clear();
    for (CoflowState* c : active) program_crossing(*c, now);
  }
}

void AaloScheduler::schedule_delta(SimTime now,
                                   std::span<CoflowState* const> active,
                                   Fabric& fabric, RateAssignment& rates,
                                   const SchedulerDelta& delta) {
  // Aalo's queue metric (max'd total bytes) moves only through continuous
  // growth — the crossing heap owns that — so dirty/requeue CoFlows need no
  // re-bucketing: completions freeze flows, restarts shrink total_sent but
  // the max() keeps the queue, and there is no SRTF estimate. Only
  // membership changes matter here.
  const auto sync_membership = [&](CoflowState* c) {
    if (c->finished()) {
      order_.erase(c->id());
      crossings_.erase(c->id());
      return;
    }
    if (order_.contains(c->id())) return;
    c->queue_index = std::max(
        c->queue_index, queues_.queue_for_total_bytes(c->total_sent(now)));
    order_.insert(c, make_key(*c));
  };
  for (CoflowState* c : delta.dirty) sync_membership(c);
  for (CoflowState* c : delta.requeue) sync_membership(c);
  crossings_.pop_due(now, [&](CoflowState* c) {
    if (c->finished()) return;
    c->queue_index = std::max(
        c->queue_index, queues_.queue_for_total_bytes(c->total_sent(now)));
    order_.update(c->id(), make_key(*c));
  });

  order_.materialize();
  SAATH_ENSURES(order_.size() == active.size());
  for (CoflowState* c : order_.ordered()) {
    allocate_greedy_fair(*c, fabric, rates);
  }
  // Greedy allocation re-rates the whole population each round, so every
  // crossing prediction is re-derived from the fresh trajectories.
  for (CoflowState* c : order_.ordered()) {
    program_crossing(*c, now);
  }
}

void AaloScheduler::on_coflow_quarantined(CoflowState& coflow, SimTime now) {
  (void)now;
  order_.erase(coflow.id());
  crossings_.erase(coflow.id());
}

SimTime AaloScheduler::schedule_valid_until(
    SimTime now, std::span<CoflowState* const> active) const {
  (void)active;
  if (primed_stream_ == 0) return now;  // unprimed: recompute every epoch
  const SimTime cross = crossings_.next();
  return cross == kNever ? std::numeric_limits<SimTime>::max() : cross;
}

}  // namespace saath
