#include "sched/saath.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/expect.h"
#include "sched/alloc.h"

namespace saath {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::int64_t ns_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// Lowers `cross` to the seconds until unfinished flow i's bytes sent reach
/// the per-flow `bound` at its current rate. Flows smaller than the bound
/// can never reach it (sent is capped at size) — skipping them is exact,
/// not just conservative. The walk below and the fold inside the rate loops
/// share this arithmetic, and a min over the same doubles is the same
/// double in any order.
SAATH_HOT_NOALLOC void lower_flow_crossing(const FlowPool& pool,
                                           std::uint32_t i, double bound,
                                           SimTime now, double& cross) {
  if (pool.rate[i] <= 0 || pool.size_bytes[i] < bound) return;
  const double sent = pool.sent(i, now);
  if (sent >= bound) return;
  cross = std::min(cross, (bound - sent) / pool.rate[i]);
}

/// Seconds until c's max_flow_sent reaches the per-flow bound at current
/// rates, walking every flow: the first flow to get there decides.
[[nodiscard]] double per_flow_cross_seconds(const CoflowState& c, double bound,
                                            SimTime now) {
  double cross = std::numeric_limits<double>::infinity();
  if (!std::isfinite(bound)) return cross;
  const FlowPool& pool = c.pool();
  for (const std::uint32_t i : c.walk_flows()) {
    if (!pool.finished[i]) lower_flow_crossing(pool, i, bound, now, cross);
  }
  return cross;
}

/// Seconds until c's total bytes sent reaches `bound` at current rates
/// (+inf when the bound is infinite or nothing is sending): the
/// total-bytes crossing derivation.
[[nodiscard]] SAATH_HOT_NOALLOC double total_bytes_cross_seconds(
    const CoflowState& c, double bound, SimTime now) {
  if (!std::isfinite(bound)) {
    return std::numeric_limits<double>::infinity();
  }
  double total_rate = 0;
  const FlowPool& pool = c.pool();
  const std::size_t n = pool.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!pool.finished[i]) total_rate += pool.rate[i];
  }
  if (total_rate <= 0) return std::numeric_limits<double>::infinity();
  return (bound - c.total_sent(now)) / total_rate;
}

/// Converts a predicted crossing delay (seconds from `now` at current
/// rates) into the guarded absolute instant to program, or kNever beyond
/// the ~9e11 s horizon (≈28k years — clear of int64 µs overflow). The
/// guard band makes float rounding strictly conservative: predictions may
/// only ever be EARLY (a due pop that has not actually crossed just
/// re-programs), never late (a missed queue move diverges from a full
/// recompute). 1µs absorbs the µs-grid truncation; the dt>>40 term
/// scales past double's integer precision for far-future instants.
[[nodiscard]] SimTime guarded_crossing_instant(SimTime now,
                                               double cross_seconds) {
  if (cross_seconds >= 9e11) return kNever;
  const auto dt = static_cast<SimTime>(std::max(0.0, cross_seconds) * 1e6);
  return now + std::max<SimTime>(0, dt - 1 - (dt >> 40));
}

/// The backfill's slot walk over c (see SaathScheduler::conserve): the
/// senders' slots in slot order when kSenders, else the receivers', each
/// slot's unfinished flows ascending. A flow whose other port has drained
/// is skipped, every other flow goes to `grant`, and the walk leaves a slot
/// once its own port drains. Returns the slot entries read.
template <bool kSenders, typename Grant>
SAATH_HOT_NOALLOC std::int64_t walk_port_slots(const CoflowState& c,
                                               const Fabric& fabric,
                                               Grant&& grant) {
  const FlowPool& pool = c.pool();
  const auto own_live = [&](PortIndex p) {
    return kSenders ? fabric.send_is_live(p) : fabric.recv_is_live(p);
  };
  const auto peer_live = [&](std::uint32_t i) {
    return kSenders ? fabric.recv_is_live(pool.dst[i])
                    : fabric.send_is_live(pool.src[i]);
  };
  const auto loads = kSenders ? c.sender_loads() : c.receiver_loads();
  std::int64_t read = 0;
  for (std::size_t s = 0; s < loads.size(); ++s) {
    const PortIndex port = loads[s].port;
    if (loads[s].unfinished_flows == 0 || !own_live(port)) continue;
    for (const std::uint32_t i :
         kSenders ? c.sender_slot_flows(s) : c.receiver_slot_flows(s)) {
      ++read;
      if (!peer_live(i)) continue;
      grant(i);
      if (!own_live(port)) break;
    }
  }
  return read;
}

/// A restored CoFlow whose queue index lies outside the queue structure.
[[noreturn, gnu::cold]] void reject_queue_index(const CoflowState& c,
                                                int num_queues) {
  throw std::invalid_argument(
      "coflow " + std::to_string(c.id().value) + " arrives in queue " +
      std::to_string(c.queue_index) + ", outside queues 0.." +
      std::to_string(num_queues - 1));
}

}  // namespace

SaathScheduler::SaathScheduler(SaathConfig config)
    : config_(config),
      queues_(config.queues),
      queue_population_(config.queues.num_queues) {
  for (int q = 0; q < queues_.num_queues(); ++q) {
    hi_thresholds_.push_back(queues_.hi_threshold(q));
  }
}

std::string SaathScheduler::name() const {
  if (config_.all_or_none && config_.per_flow_threshold && config_.lcof) {
    return "saath";
  }
  if (!config_.all_or_none && !config_.per_flow_threshold && !config_.lcof &&
      !config_.work_conservation && config_.deadline_factor <= 0 &&
      !config_.dynamics_srtf && !config_.respect_data_availability) {
    return "aalo";
  }
  std::string n = "saath[";
  n += config_.all_or_none ? "an" : "greedy";
  n += config_.per_flow_threshold ? "+pf" : "+total";
  n += config_.lcof ? "+lcof" : "+fifo";
  n += "]";
  return n;
}

double SaathScheduler::dynamics_remaining_estimate(const CoflowState& coflow,
                                                   SimTime now) {
  SAATH_EXPECTS(coflow.finished_flows() > 0);
  const double f_e = coflow.finished_length_median();
  // Remaining of flow i is estimated as (f_e - sent_i)+; the CoFlow's
  // remaining work m_c is the max since the CCT tracks the last flow.
  double m_c = 0;
  const FlowPool& pool = coflow.pool();
  for (const std::uint32_t i : coflow.walk_flows()) {
    if (pool.finished[i]) continue;
    m_c = std::max(m_c, std::max(0.0, f_e - pool.sent(i, now)));
  }
  return m_c;
}

bool SaathScheduler::is_volatile(const CoflowState& c) const {
  return config_.dynamics_srtf && c.dynamics_flagged &&
         c.finished_flows() > 0;
}

Slot SaathScheduler::announced_slot(const CoflowState& c) const {
  const Slot slot = slot_of(c.id());
  SAATH_EXPECTS_MSG(slot != kNoSlot,
                    "a SchedulerDelta list names a CoFlow never announced");
  return slot;
}

SAATH_HOT_NOALLOC void SaathScheduler::on_coflow_arrival(CoflowState& coflow,
                                                         SimTime now) {
  (void)now;
  if (coflow.queue_index < 0 || coflow.queue_index >= queues_.num_queues()) {
    reject_queue_index(coflow, queues_.num_queues());
  }
  const auto hit = slot_of_.insert(coflow.id().value);
  SAATH_EXPECTS_MSG(hit.inserted,
                    "on_coflow_arrival for a CoFlow already announced");
  Slot slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<Slot>(marks_.size());
    marks_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slot_of_.value(hit.index) = slot;
  // The arrival's queue is assigned at the next schedule(); grouping it
  // under its current queue keeps the index exact in between.
  if (tracks_index()) spatial_.add_coflow(slot, coflow, coflow.queue_index);
  queue_population_.add(coflow.queue_index);
}

SAATH_HOT_NOALLOC void SaathScheduler::on_flow_complete(CoflowState& coflow,
                                                        FlowState& flow,
                                                        SimTime now) {
  (void)now;
  const Slot slot = slot_of(coflow.id());
  SAATH_EXPECTS_MSG(slot != kNoSlot,
                    "on_flow_complete for a CoFlow never announced");
  if (tracks_index()) spatial_.on_flow_complete(slot, coflow, flow);
}

SAATH_HOT_NOALLOC void SaathScheduler::on_coflow_complete(CoflowState& coflow,
                                                          SimTime now) {
  (void)now;
  const std::size_t cell = slot_of_.find(coflow.id().value);
  SAATH_EXPECTS_MSG(cell != slot_of_.npos,
                    "on_coflow_complete for a CoFlow never announced");
  const Slot slot = slot_of_.value(cell);
  slot_of_.erase_at(cell);
  if (tracks_index()) spatial_.remove(slot);
  queue_population_.remove(coflow.queue_index);
  // Drop the CoFlow from the delta structures right away (all no-ops when
  // they never held it) so nothing retains its pointer.
  order_.erase(slot);
  crossings_.erase(slot);
  deadlines_.erase(slot);
  SlotMarks& marks = marks_[slot];
  if (marks.is_volatile) --volatile_count_;
  marks.is_volatile = false;
  released_slots_.push_back(slot);
}

void SaathScheduler::on_coflow_quarantined(CoflowState& coflow, SimTime now) {
  // A quarantined CoFlow leaves every maintained structure exactly as a
  // completed one does — the erase path does not require finished() — and
  // re-enters through on_coflow_arrival, on a fresh slot, when the engine
  // re-admits it.
  on_coflow_complete(coflow, now);
}

SAATH_HOT_NOALLOC void SaathScheduler::add_candidate(CoflowState* c,
                                                     Slot slot) {
  SlotMarks& marks = marks_[slot];
  if (marks.candidate_round == stats_.rounds) return;
  marks.candidate_round = stats_.rounds;
  candidates_.emplace_back(c, slot);
}

int SaathScheduler::target_queue(const CoflowState& c, SimTime now) const {
  if (is_volatile(c)) {
    // §4.3: once some flows finished we can estimate remaining work
    // directly instead of relying on attained service; this may move the
    // CoFlow *up*, which the total-bytes rule can never do.
    return queues_.queue_for_max_flow_bytes(dynamics_remaining_estimate(c, now),
                                            c.width());
  }
  const int q =
      config_.per_flow_threshold
          ? queues_.queue_for_max_flow_bytes(c.max_flow_sent(now), c.width())
          : queues_.queue_for_total_bytes(c.total_sent(now));
  // With §4.3 off nothing re-queues a CoFlow, so its queue only demotes,
  // even after a restart loses progress (Aalo's behaviour).
  return config_.dynamics_srtf ? q : std::max(c.queue_index, q);
}

void SaathScheduler::stamp_deadlines(
    SimTime now, std::span<const std::pair<CoflowState*, Slot>> entered,
    Rate port_bandwidth) {
  if (config_.deadline_factor <= 0 || entered.empty()) return;
  // D5: deadline = d * C_q * t, where C_q is the queue's population (read
  // from the delta-maintained tracker, after ALL of this round's moves) and
  // t its minimum residence time — the FIFO drain-time bound.
  for (const auto& [c, slot] : entered) {
    const int population = queue_population_.count(c->queue_index);
    const double t_q =
        queues_.min_residence_seconds(c->queue_index, port_bandwidth);
    c->deadline =
        now + static_cast<SimTime>(config_.deadline_factor * population * t_q *
                                   1e6);
    deadlines_.set(slot, c->id(), c->deadline);
  }
}

bool SaathScheduler::all_ports_available(const CoflowState& c,
                                         const Fabric& fabric) const {
  const Rate eps = fabric.port_bandwidth() * 1e-9;
  for (const auto& load : c.sender_loads()) {
    if (load.unfinished_flows > 0 && fabric.send_remaining(load.port) <= eps) {
      return false;
    }
  }
  for (const auto& load : c.receiver_loads()) {
    if (load.unfinished_flows > 0 && fabric.recv_remaining(load.port) <= eps) {
      return false;
    }
  }
  return true;
}

SAATH_HOT_NOALLOC Rate SaathScheduler::allocate_equal_rate(
    CoflowState& c, Fabric& fabric, RateAssignment& rates, SimTime now,
    CrossingFold& fold) const {
  // D2: max-min share at each port is budget / (c's flows there); the
  // CoFlow-wide rate is the minimum share — speeding any flow beyond the
  // slowest cannot improve the CCT.
  Rate rate = std::numeric_limits<Rate>::infinity();
  for (const auto& load : c.sender_loads()) {
    if (load.unfinished_flows == 0) continue;
    rate = std::min(rate,
                    fabric.send_remaining(load.port) / load.unfinished_flows);
  }
  for (const auto& load : c.receiver_loads()) {
    if (load.unfinished_flows == 0) continue;
    rate = std::min(rate,
                    fabric.recv_remaining(load.port) / load.unfinished_flows);
  }
  SAATH_EXPECTS(std::isfinite(rate) && rate >= 0);
  replay_equal_rate(c, rate, fabric, rates, now, fold.walk ? nullptr : &fold);
  return rate;
}

SAATH_HOT_NOALLOC void SaathScheduler::replay_equal_rate(
    CoflowState& c, Rate rate, Fabric& fabric, RateAssignment& rates,
    SimTime now, CrossingFold* fold) const {
  const auto flows = c.flows();
  const FlowPool& pool = c.pool();
  for (const std::uint32_t i : c.walk_flows()) {
    if (pool.finished[i]) continue;
    FlowState& f = flows[i];
    rates.set(c, f, rate);
    fabric.consume(f.src(), f.dst(), rate);
    if (fold != nullptr) fold_crossing(*fold, c, i, now);
  }
}

SAATH_HOT_NOALLOC void SaathScheduler::fold_crossing(
    CrossingFold& fold, const CoflowState& c, std::uint32_t i,
    SimTime now) const {
  const FlowPool& pool = c.pool();
  if (pool.rate[i] <= 0) return;
  if (fold.rated++ == 0) fold.bound = hi_threshold(c.queue_index) / c.width();
  lower_flow_crossing(pool, i, fold.bound, now, fold.seconds);
}

std::int64_t SaathScheduler::order_key_component(const CoflowState& c,
                                                  Slot slot) const {
  if (!config_.lcof) return static_cast<std::int64_t>(c.arrival());
  return spatial_.contention(slot);
}

OrderKey SaathScheduler::make_key(const CoflowState& c, SimTime now,
                                  std::int64_t contention_key) const {
  OrderKey k;
  k.expired = config_.deadline_factor > 0 && c.deadline != kNever &&
              c.deadline <= now;
  k.deadline = c.deadline;
  k.queue = c.queue_index;
  k.key = contention_key;
  k.arrival = c.arrival();
  k.id = c.id();
  return k;
}

SAATH_HOT_NOALLOC void SaathScheduler::program_crossing(
    CoflowState& c, Slot slot, const CrossingFold& fold, SimTime now) {
  // The fold saw every flow this round rated; the walk it replaces reads
  // every flow rated at all. They agree only if no flow entered the round
  // rated.
  SAATH_EXPECTS_MSG(fold.walk || fold.rated == c.rated_flows(),
                    "a flow entered schedule() with a nonzero rate: every "
                    "flow must start the round at rate 0 "
                    "(RateAssignment::begin_epoch)");
  if (c.finished() || is_volatile(c)) {
    // Volatile CoFlows are re-bucketed every round regardless (the §4.3
    // estimate drifts continuously); a crossing entry would be noise.
    crossings_.erase(slot);
    return;
  }
  // Trajectory unchanged since the entry (or tombstone) was derived — the
  // common case when a round re-assigned the exact same rates — keeps the
  // recorded prediction: re-deriving it at this later `now` could move the
  // guarded instant by the µs truncation.
  const std::uint64_t traj = c.trajectory_version();
  if (crossings_.current(slot, traj, c.queue_index)) return;
  double cross_seconds = fold.seconds;
  if (fold.walk) {
    const double hi = hi_threshold(c.queue_index);
    cross_seconds = config_.per_flow_threshold
                        ? per_flow_cross_seconds(c, hi / c.width(), now)
                        : total_bytes_cross_seconds(c, hi, now);
  }
  crossings_.set(slot, c.id(), guarded_crossing_instant(now, cross_seconds),
                 traj, c.queue_index);
}

SAATH_HOT_NOALLOC void SaathScheduler::admit_and_conserve(
    SimTime now, Fabric& fabric, RateAssignment& rates,
    std::span<CoflowState* const> ordered, std::size_t first_dirty_rank) {
  const auto t1 = Clock::now();
  // Replay soundness: all-or-none admission of rank i depends only on the
  // fabric state left by ranks < i, each CoFlow's unfinished-flow set, its
  // data gate and the port capacities. The clean prefix has identical
  // membership/order AND untouched per-CoFlow state (touch() fences any
  // mutation), so the cached decisions reproduce the recompute bit-exactly
  // as long as capacities did not move.
  const bool replay = config_.all_or_none &&
                      fabric.capacity_version() == admit_capacity_version_ &&
                      admit_cache_.size() >= first_dirty_rank;
  admit_cache_.resize(ordered.size());
  std::vector<std::size_t>& missed = missed_ranks_;
  missed.clear();
  for (std::size_t rank = 0; rank < ordered.size(); ++rank) {
    CoflowState* c = ordered[rank];
    if (replay && rank < first_dirty_rank) {
      ++stats_.replayed_ranks;
      const AdmitDecision& d = admit_cache_[rank];
      if (d.kind == AdmitDecision::Kind::kAdmitted) {
        replay_equal_rate(*c, d.rate, fabric, rates, now, nullptr);
      } else if (d.kind == AdmitDecision::Kind::kMissed) {
        missed.push_back(rank);
      }
      continue;
    }
    AdmitDecision d;
    CrossingFold fold = fresh_fold();
    if (config_.respect_data_availability && !c->data_available) {
      d.kind = AdmitDecision::Kind::kSkippedUnavailable;
    } else if (!config_.all_or_none) {
      // Ablation escape hatch: partial (per-flow greedy) allocation, i.e.
      // the spatial coordination is switched off entirely.
      allocate_greedy_fair(*c, fabric, rates);
      d.kind = AdmitDecision::Kind::kGreedy;
      fold.walk = true;
    } else if (all_ports_available(*c, fabric)) {
      d.kind = AdmitDecision::Kind::kAdmitted;
      d.rate = allocate_equal_rate(*c, fabric, rates, now, fold);
    } else {
      d.kind = AdmitDecision::Kind::kMissed;
      missed.push_back(rank);
    }
    admit_cache_[rank] = d;
    // conserve() lists every missed CoFlow itself.
    if (d.kind != AdmitDecision::Kind::kMissed || !config_.work_conservation) {
      recross_.emplace_back(rank, fold);
    }
  }
  stats_.admit_ns += ns_since(t1);

  const auto t2 = Clock::now();
  if (config_.work_conservation) conserve(now, fabric, rates, ordered, missed);
  stats_.conserve_ns += ns_since(t2);
  admit_capacity_version_ = fabric.capacity_version();
}

SAATH_HOT_NOALLOC void SaathScheduler::conserve(
    SimTime now, Fabric& fabric, RateAssignment& rates,
    std::span<CoflowState* const> ordered,
    std::span<const std::size_t> missed) {
  if (missed.empty()) return;
  ++stats_.backfill_rounds;
  stats_.backfill_missed += static_cast<std::int64_t>(missed.size());
  // One pass per missed CoFlow, in rank order, along the port slots of a
  // side whose slot order meets every port's flows in ascending flow index
  // (saath.h: why that is the dense walk's allocation, bit for bit); a
  // CoFlow with no such side takes the dense walk itself. An empty live set
  // means no flow anywhere can clear the epsilon. Conservation rates depend
  // on the whole round's leftovers, so every missed CoFlow, replayed ones
  // included, gets a fresh trajectory and a recross_ entry, its crossing
  // folded in as its flows get budget.
  std::size_t turn = 0;
  for (; turn < missed.size(); ++turn) {
    if (fabric.send_live().empty() || fabric.recv_live().empty()) break;
    CoflowState* c = ordered[missed[turn]];
    CrossingFold& fold =
        recross_.emplace_back(missed[turn], fresh_fold()).second;
    const FlowPool& pool = c->pool();
    const std::int64_t allocs_before = stats_.backfill_allocs;
    // Gives unfinished flow i what both of its ports still have, if that
    // clears the epsilon; the FlowState handle is materialized only for a
    // flow that actually receives budget.
    const auto grant = [&](std::uint32_t i) {
      const Rate r = std::min(fabric.send_remaining(pool.src[i]),
                              fabric.recv_remaining(pool.dst[i]));
      if (r <= Fabric::kRateEpsilon) return;
      ++stats_.backfill_allocs;
      rates.set(*c, c->flows()[i], pool.rate[i] + r);
      fabric.consume(pool.src[i], pool.dst[i], r);
      if (!fold.walk) fold_crossing(fold, *c, i, now);
    };
    const bool by_senders =
        c->sender_walk_ordered() &&
        (!c->receiver_walk_ordered() ||
         c->sender_loads().size() <= c->receiver_loads().size());
    if (by_senders) {
      stats_.backfill_flows += walk_port_slots<true>(*c, fabric, grant);
    } else if (c->receiver_walk_ordered()) {
      stats_.backfill_flows += walk_port_slots<false>(*c, fabric, grant);
    } else {
      for (const std::uint32_t i : c->walk_flows()) {
        if (!pool.finished[i]) grant(i);
      }
      stats_.backfill_flows +=
          static_cast<std::int64_t>(c->walk_flows().size());
    }
    if (stats_.backfill_allocs > allocs_before) ++stats_.backfill_candidates;
  }
  // The live sets drained before these CoFlows' turn: nothing rated them.
  for (; turn < missed.size(); ++turn) {
    recross_.emplace_back(missed[turn], fresh_fold());
  }
}

void SaathScheduler::schedule(SimTime now,
                              std::span<CoflowState* const> active,
                              Fabric& fabric, RateAssignment& rates) {
  schedule(now, active, fabric, rates, SchedulerDelta{});
}

SAATH_HOT_NOALLOC void SaathScheduler::schedule(
    SimTime now, std::span<CoflowState* const> active, Fabric& fabric,
    RateAssignment& rates, const SchedulerDelta& delta) {
  ++stats_.rounds;
  // Membership comes from the lifecycle hooks (sim/scheduler.h); this O(1)
  // count catches a caller that skipped an arrival or a completion.
  const auto live = static_cast<int>(active.size());
  SAATH_EXPECTS_MSG(queue_population_.total() == live,
                    "active lists a CoFlow never announced, or one that "
                    "left without on_coflow_complete");
  // A round with no stream, or the first of a new one, has no delta lists
  // it can trust, so every CoFlow is a candidate. Nothing maintained needs
  // clearing for that: membership came from the hooks, a stale crossing or
  // deadline entry only adds a candidate, and touching every CoFlow puts
  // the first dirty rank at 0, so no admission is replayed.
  const bool every = delta.stream_id == 0 || delta.stream_id != stream_;
  stream_ = delta.stream_id;
  if (!every) ++stats_.delta_rounds;
  // Greedy admission never replays, so a fence would only lower the
  // materialize floor.
  const bool fence = config_.all_or_none;
  const auto t0 = Clock::now();

  // ---- 1. Gather this round's re-bucket candidates: a CoFlow's queue can
  //         only move through a due threshold crossing, a dynamics event
  //         (requeue), the §4.3 estimate (volatile), or by being new.
  //         Plain-dirty CoFlows (completions, data flips) provably keep
  //         their queue — they only need the admission-replay fence and,
  //         for contention, the spatial drain below.
  candidates_.clear();
  touch_only_.clear();
  if (every) {
    for (CoflowState* c : active) {
      // With the counts equal, a slot for every CoFlow proves the hooks
      // announced exactly `active`, and in_sync that the index saw every
      // flow completion.
      const Slot slot = slot_of(c->id());
      const bool synced =
          slot != kNoSlot && (!tracks_index() || spatial_.in_sync(slot, *c));
      SAATH_EXPECTS_MSG(synced,
                        "active lists a CoFlow never announced, or one of "
                        "its flows completed without on_flow_complete");
      add_candidate(c, slot);
    }
  } else {
    // Finished CoFlows in the delta already left every structure through
    // on_coflow_complete.
    for (CoflowState* c : delta.requeue) {
      if (!c->finished()) add_candidate(c, announced_slot(*c));
    }
    for (CoflowState* c : delta.dirty) {
      if (c->finished()) continue;
      const Slot slot = announced_slot(*c);
      if (!order_.contains(slot) ||
          (is_volatile(*c) && !marks_[slot].is_volatile)) {
        // Arrival (needs its first bucket) or a flagged CoFlow whose first
        // finished flow just armed the SRTF estimate.
        add_candidate(c, slot);
      } else if (fence) {
        touch_only_.push_back(slot);
      }
    }
  }
  crossings_.pop_due(now, [&](Slot slot) {
    CoflowState* c = order_.state(slot);
    if (!c->finished()) add_candidate(c, slot);
  });
  if (volatile_count_ > 0) {
    for (Slot slot = 0; slot < marks_.size(); ++slot) {
      if (marks_[slot].is_volatile) add_candidate(order_.state(slot), slot);
    }
  }

  // ---- 2. Re-bucket candidates (queue moves carry the population and
  //         the spatial index groups; arrivals joined both at their hook).
  entered_.clear();
  for (const auto& [c, slot] : candidates_) {
    const int q = target_queue(*c, now);
    const bool fresh = c->deadline == kNever && config_.deadline_factor > 0;
    if (q != c->queue_index || fresh) {
      queue_population_.move(c->queue_index, q);
      c->queue_index = q;
      entered_.emplace_back(c, slot);
    }
    if (tracks_index()) spatial_.set_group(slot, c->queue_index);
    if (is_volatile(*c) && !marks_[slot].is_volatile) {
      marks_[slot].is_volatile = true;
      ++volatile_count_;
    }
  }

  // ---- 3. Stamp D5 deadlines for entered CoFlows (post-move populations),
  //         then expire due ones.
  stamp_deadlines(now, entered_, fabric.port_bandwidth());
  deadlines_.pop_due(now, [&](Slot slot) {
    if (!order_.contains(slot)) return;
    CoflowState* c = order_.state(slot);
    order_.update(slot, make_key(*c, now, order_key_component(*c, slot)));
  });

  // ---- 4. Re-key + fence every candidate: update() dirties moved keys,
  //         touch() fences same-key state changes out of admission replay.
  //         Plain-dirty CoFlows kept their key — touch alone fences them.
  for (const auto& [c, slot] : candidates_) {
    const OrderKey k = make_key(*c, now, order_key_component(*c, slot));
    if (order_.contains(slot)) {
      order_.update(slot, k);
    } else {
      order_.insert(slot, c, k);
      // A CoFlow can arrive with a deadline already stamped (restored from
      // a checkpoint, or kept through quarantine); unexpired, it is still a
      // trigger.
      if (config_.deadline_factor > 0 && c->deadline != kNever &&
          c->deadline > now) {
        deadlines_.set(slot, c->id(), c->deadline);
      }
    }
    if (fence) order_.touch(slot);
  }
  for (const Slot slot : touch_only_) order_.touch(slot);

  // ---- 5. Re-key CoFlows whose contention the spatial index reports as
  //         actually changed (completions since last round, this round's
  //         group moves) — O(1) each. A candidate's key already reads its
  //         current contention, so its re-key here is an exact no-op. A
  //         listed slot released since holds no order entry.
  if (tracks_index()) {
    for (const Slot slot : spatial_.contention_changes()) {
      if (!order_.contains(slot)) continue;
      CoflowState* c = order_.state(slot);
      order_.update(slot, make_key(*c, now, spatial_.contention(slot)));
    }
    spatial_.clear_contention_changes();
  }

  // ---- 6. Materialize, reusing the untouched sorted prefix. The order no
  //         longer names the slots released before it, so they are free.
  const std::size_t first_dirty = order_.materialize();
  free_slots_.insert(free_slots_.end(), released_slots_.begin(),
                     released_slots_.end());
  released_slots_.clear();
  stats_.candidates += static_cast<std::int64_t>(candidates_.size());
  stats_.order_ns += ns_since(t0);
  SAATH_ENSURES(order_.size() == active.size());

  // ---- 7. Admission (prefix replay) + work conservation. Candidates and
  //         touched CoFlows all sit at ranks >= first_dirty (touch() lowers
  //         the dirty floor to their key), so the admission pass itself
  //         collects every trajectory that could have changed into recross_,
  //         each with its crossing folded in as its rates were set.
  recross_.clear();
  const auto ordered = order_.ordered();
  admit_and_conserve(now, fabric, rates, ordered, first_dirty);

  // ---- 8. On a stream, re-program crossings for every CoFlow whose
  //         trajectory this round touched; replayed-admitted CoFlows
  //         restored theirs bit-exactly, so their entries still stand. With
  //         no stream nothing reads them (schedule_valid_until answers
  //         `now`), and the next stream's first round lists every CoFlow.
  if (stream_ == 0) return;
  const auto t3 = Clock::now();
  const auto slots = order_.ordered_slots();
  for (const auto& [rank, fold] : recross_) {
    program_crossing(*ordered[rank], slots[rank], fold, now);
  }
  stats_.recrossed += static_cast<std::int64_t>(recross_.size());
  stats_.crossing_ns += ns_since(t3);
}

SimTime SaathScheduler::schedule_valid_until(
    SimTime now, std::span<CoflowState* const> active) const {
  (void)active;
  // No stream: the caller reports no deltas, so recompute every epoch.
  if (stream_ == 0) return now;
  // On a stream the crossing and deadline heaps ARE the triggers — O(1).
  if (volatile_count_ > 0) return now;
  SimTime until = std::numeric_limits<SimTime>::max();
  const SimTime cross = crossings_.next();
  if (cross != kNever) until = std::min(until, cross);
  const SimTime deadline = deadlines_.next();
  if (deadline != kNever) until = std::min(until, deadline);
  return until;
}

}  // namespace saath
