#include "reference/reference.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/expect.h"
#include "sched/alloc.h"

namespace saath::reference {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ns_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// Seconds until the largest per-flow byte count reaches `bound` at the
/// current rates: the first flow to get there decides. A flow smaller than
/// the bound never reaches it.
double max_flow_crossing_seconds(const CoflowState& c, double bound,
                                 SimTime now) {
  double cross = std::numeric_limits<double>::infinity();
  if (!std::isfinite(bound)) return cross;
  for (const FlowState& f : c.flows()) {
    if (f.finished() || f.rate() <= 0 || f.size() < bound) continue;
    const double sent = f.sent(now);
    if (sent >= bound) continue;
    cross = std::min(cross, (bound - sent) / f.rate());
  }
  return cross;
}

/// Seconds until the CoFlow's total bytes sent reaches `bound` at the
/// current rates.
double total_crossing_seconds(const CoflowState& c, double bound,
                              SimTime now) {
  if (!std::isfinite(bound)) return std::numeric_limits<double>::infinity();
  double total_rate = 0;
  for (const FlowState& f : c.flows()) {
    if (!f.finished()) total_rate += f.rate();
  }
  if (total_rate <= 0) return std::numeric_limits<double>::infinity();
  return (bound - c.total_sent(now)) / total_rate;
}

/// One CoFlow's place in the round's admission order.
struct Ranked {
  CoflowState* coflow = nullptr;
  bool expired = false;
  SimTime deadline = kNever;
  int queue = 0;
  std::int64_t key = 0;  // k_c under LCoF, arrival under FIFO
  SimTime arrival = 0;
  CoflowId id{};
};

/// D5 first: expired CoFlows lead, earliest deadline first. Then by queue,
/// then by key, with (arrival, id) breaking every remaining tie.
bool ranks_before(const Ranked& a, const Ranked& b) {
  if (a.expired != b.expired) return a.expired;
  if (a.expired && a.deadline != b.deadline) return a.deadline < b.deadline;
  if (a.queue != b.queue) return a.queue < b.queue;
  if (a.key != b.key) return a.key < b.key;
  if (a.arrival != b.arrival) return a.arrival < b.arrival;
  return a.id < b.id;
}

}  // namespace

std::vector<int> batch_contention(std::span<CoflowState* const> active,
                                  int num_ports, std::span<const int> group) {
  SAATH_EXPECTS(num_ports > 0);
  SAATH_EXPECTS(group.size() == active.size());
  // Who holds an unfinished flow on each port: [0, P) as sender, [P, 2P)
  // as receiver.
  std::vector<std::vector<std::size_t>> occupants(
      2 * static_cast<std::size_t>(num_ports));
  const auto sender = [](PortIndex p) { return static_cast<std::size_t>(p); };
  const auto receiver = [num_ports](PortIndex p) {
    return static_cast<std::size_t>(num_ports + p);
  };
  for (std::size_t i = 0; i < active.size(); ++i) {
    for (const PortLoad& l : active[i]->sender_loads()) {
      if (l.unfinished_flows > 0) occupants[sender(l.port)].push_back(i);
    }
    for (const PortLoad& l : active[i]->receiver_loads()) {
      if (l.unfinished_flows > 0) occupants[receiver(l.port)].push_back(i);
    }
  }
  // Count each CoFlow's distinct same-group co-occupants; counted_for[j]
  // == i marks j as already counted for i.
  std::vector<int> k(active.size(), 0);
  std::vector<std::size_t> counted_for(active.size(), active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    const auto visit = [&](std::size_t bucket) {
      for (const std::size_t j : occupants[bucket]) {
        if (j == i || group[j] != group[i] || counted_for[j] == i) continue;
        counted_for[j] = i;
        ++k[i];
      }
    };
    for (const PortLoad& l : active[i]->sender_loads()) {
      if (l.unfinished_flows > 0) visit(sender(l.port));
    }
    for (const PortLoad& l : active[i]->receiver_loads()) {
      if (l.unfinished_flows > 0) visit(receiver(l.port));
    }
  }
  return k;
}

// ------------------------------------------------------------------ Saath

ReferenceSaath::ReferenceSaath(SaathConfig config)
    : config_(config), queues_(config.queues) {}

std::string ReferenceSaath::name() const {
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

bool ReferenceSaath::on_estimate(const CoflowState& c) const {
  return config_.dynamics_srtf && c.dynamics_flagged &&
         c.finished_flows() > 0;
}

int ReferenceSaath::queue_for(const CoflowState& c, SimTime now) const {
  if (on_estimate(c)) {
    // §4.3: remaining work m_c is the median finished-flow length minus
    // what each unfinished flow already sent, maxed over those flows.
    const double f_e = c.finished_length_median();
    double m_c = 0;
    for (const FlowState& f : c.flows()) {
      if (f.finished()) continue;
      m_c = std::max(m_c, std::max(0.0, f_e - f.sent(now)));
    }
    return queues_.queue_for_max_flow_bytes(m_c, c.width());
  }
  const int q =
      config_.per_flow_threshold
          ? queues_.queue_for_max_flow_bytes(c.max_flow_sent(now), c.width())
          : queues_.queue_for_total_bytes(c.total_sent(now));
  // Without §4.3 nothing re-queues a CoFlow: its queue never moves up, even
  // after a restart loses progress.
  return config_.dynamics_srtf ? q : std::max(c.queue_index, q);
}

bool ReferenceSaath::all_ports_free(const CoflowState& c,
                                    const Fabric& fabric) const {
  const Rate eps = fabric.port_bandwidth() * 1e-9;
  for (const PortLoad& l : c.sender_loads()) {
    if (l.unfinished_flows > 0 && fabric.send_remaining(l.port) <= eps) {
      return false;
    }
  }
  for (const PortLoad& l : c.receiver_loads()) {
    if (l.unfinished_flows > 0 && fabric.recv_remaining(l.port) <= eps) {
      return false;
    }
  }
  return true;
}

void ReferenceSaath::admit_at_equal_rate(CoflowState& c, Fabric& fabric,
                                         RateAssignment& rates) const {
  // D2: the CoFlow-wide rate is the smallest per-port max-min share.
  Rate rate = std::numeric_limits<Rate>::infinity();
  for (const PortLoad& l : c.sender_loads()) {
    if (l.unfinished_flows > 0) {
      rate =
          std::min(rate, fabric.send_remaining(l.port) / l.unfinished_flows);
    }
  }
  for (const PortLoad& l : c.receiver_loads()) {
    if (l.unfinished_flows > 0) {
      rate =
          std::min(rate, fabric.recv_remaining(l.port) / l.unfinished_flows);
    }
  }
  for (FlowState& f : c.flows()) {
    if (f.finished()) continue;
    rates.set(c, f, rate);
    fabric.consume(f.src(), f.dst(), rate);
  }
}

void ReferenceSaath::schedule(SimTime now,
                              std::span<CoflowState* const> active,
                              Fabric& fabric, RateAssignment& rates) {
  ++stats_.rounds;
  const auto t_order = Clock::now();

  // 1. Queue assignment. A CoFlow that moved, or never had a deadline,
  //    enters its queue now.
  const bool deadlines = config_.deadline_factor > 0;
  std::vector<CoflowState*> entered;
  for (CoflowState* c : active) {
    const int q = queue_for(*c, now);
    if (q != c->queue_index || (deadlines && c->deadline == kNever)) {
      c->queue_index = q;
      entered.push_back(c);
    }
  }

  // 2. D5: deadline = d · C_q · t, with C_q the queue's population after
  //    every move of this round and t its minimum residence time.
  if (deadlines) {
    std::vector<int> population(
        static_cast<std::size_t>(queues_.num_queues()), 0);
    for (const CoflowState* c : active) {
      ++population[static_cast<std::size_t>(c->queue_index)];
    }
    for (CoflowState* c : entered) {
      const int c_q = population[static_cast<std::size_t>(c->queue_index)];
      const double t_q = queues_.min_residence_seconds(
          c->queue_index, fabric.port_bandwidth());
      c->deadline = now + static_cast<SimTime>(config_.deadline_factor * c_q *
                                               t_q * 1e6);
    }
  }

  // 3. LCoF: k_c counts the same-queue CoFlows sharing a port with c.
  std::vector<int> contention;
  if (config_.lcof) {
    std::vector<int> queue_of;
    for (const CoflowState* c : active) queue_of.push_back(c->queue_index);
    contention = batch_contention(active, fabric.num_ports(), queue_of);
  }

  // 4. One full sort.
  std::vector<Ranked> order;
  for (std::size_t i = 0; i < active.size(); ++i) {
    CoflowState* c = active[i];
    Ranked r;
    r.coflow = c;
    r.expired = deadlines && c->deadline != kNever && c->deadline <= now;
    r.deadline = c->deadline;
    r.queue = c->queue_index;
    r.key = config_.lcof ? contention[i]
                         : static_cast<std::int64_t>(c->arrival());
    r.arrival = c->arrival();
    r.id = c->id();
    order.push_back(r);
  }
  std::sort(order.begin(), order.end(), ranks_before);
  stats_.order_ns += ns_since(t_order);

  // 5. All-or-none admission in order; CoFlows it cannot place are missed.
  const auto t_admit = Clock::now();
  std::vector<CoflowState*> missed;
  for (const Ranked& r : order) {
    CoflowState& c = *r.coflow;
    if (config_.respect_data_availability && !c.data_available) continue;
    if (!config_.all_or_none) {
      allocate_greedy_fair(c, fabric, rates);
    } else if (all_ports_free(c, fabric)) {
      admit_at_equal_rate(c, fabric, rates);
    } else {
      missed.push_back(&c);
    }
  }
  stats_.admit_ns += ns_since(t_admit);

  // 6. Work conservation: each flow of each missed CoFlow, in order, takes
  //    whatever both of its ports still have.
  const auto t_conserve = Clock::now();
  if (config_.work_conservation) {
    for (CoflowState* c : missed) {
      for (FlowState& f : c->flows()) {
        if (f.finished()) continue;
        const Rate r = std::min(fabric.send_remaining(f.src()),
                                fabric.recv_remaining(f.dst()));
        if (r <= Fabric::kRateEpsilon) continue;
        rates.set(*c, f, f.rate() + r);
        fabric.consume(f.src(), f.dst(), r);
      }
    }
  }
  stats_.conserve_ns += ns_since(t_conserve);
}

SimTime ReferenceSaath::schedule_valid_until(
    SimTime now, std::span<CoflowState* const> active) const {
  // With no delta, the order moves only when a CoFlow crosses its queue
  // threshold at its current rates or a deadline expires. Floor each
  // crossing to the µs grid so the answer is never late. No trigger means
  // the rates stand until the next delta (int64 max; kNever is -1).
  SimTime until = std::numeric_limits<SimTime>::max();
  for (const CoflowState* c : active) {
    if (on_estimate(*c)) return now;
    const double hi = queues_.hi_threshold(c->queue_index);
    const double cross_seconds =
        config_.per_flow_threshold
            ? max_flow_crossing_seconds(*c, hi / c->width(), now)
            : total_crossing_seconds(*c, hi, now);
    // Beyond ~9e11 s (28k years) the crossing counts as never.
    if (cross_seconds < 9e11) {
      const auto dt = static_cast<SimTime>(std::max(0.0, cross_seconds) * 1e6);
      until = std::min(until, now + dt);
    }
    if (config_.deadline_factor > 0 && c->deadline != kNever &&
        c->deadline > now) {
      until = std::min(until, c->deadline);
    }
  }
  return until;
}

// ------------------------------------------------------------------- Aalo

ReferenceAalo::ReferenceAalo(QueueConfig queues) : queues_(queues) {}

void ReferenceAalo::schedule(SimTime now,
                             std::span<CoflowState* const> active,
                             Fabric& fabric, RateAssignment& rates) {
  // Aalo's queue follows total bytes sent and never moves up, even after a
  // restart loses progress.
  for (CoflowState* c : active) {
    c->queue_index = std::max(
        c->queue_index, queues_.queue_for_total_bytes(c->total_sent(now)));
  }
  std::vector<CoflowState*> order(active.begin(), active.end());
  std::sort(order.begin(), order.end(),
            [](const CoflowState* a, const CoflowState* b) {
              if (a->queue_index != b->queue_index) {
                return a->queue_index < b->queue_index;
              }
              if (a->arrival() != b->arrival()) {
                return a->arrival() < b->arrival();
              }
              return a->id() < b->id();
            });
  for (CoflowState* c : order) allocate_greedy_fair(*c, fabric, rates);
}

}  // namespace saath::reference
