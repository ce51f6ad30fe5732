// Shared helpers for building small deterministic scenarios in tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "coflow/coflow.h"
#include "reference/engine.h"
#include "reference/reference.h"
#include "sim/engine.h"
#include "trace/trace.h"
#include "workload/source.h"

namespace saath::testing {

/// Builds a CoflowSpec from (src, dst, bytes) triples.
inline CoflowSpec make_coflow(std::int64_t id, SimTime arrival,
                              std::initializer_list<FlowSpec> flows) {
  CoflowSpec c;
  c.id = CoflowId{id};
  c.arrival = arrival;
  c.flows = flows;
  return c;
}

inline trace::Trace make_trace(int num_ports,
                               std::vector<CoflowSpec> coflows) {
  trace::Trace t;
  t.name = "test";
  t.num_ports = num_ports;
  t.coflows = std::move(coflows);
  t.normalize();
  return t;
}

/// A fabric-friendly config: 100 bytes/sec ports and 1 s epochs make the
/// toy-figure scenarios exact integer arithmetic.
inline SimConfig toy_config() {
  SimConfig cfg;
  cfg.port_bandwidth = 100.0;  // bytes/sec
  cfg.delta = msec(100);
  return cfg;
}

/// A test workload as one event stream: the trace's arrivals (a CoFlow named
/// in `gates` carries that instant as its data_ready), `dynamics` as
/// kDynamics events, and every CoFlow `release` returns for a completion,
/// arriving at its own instant (which must not precede the completion).
/// Named after the trace, like a TraceSource.
class TestWorkload final : public workload::WorkloadSource {
 public:
  using Release =
      std::function<std::vector<CoflowSpec>(const CoflowRecord&, SimTime)>;

  TestWorkload(const trace::Trace& trace,
               const std::vector<DynamicsEvent>& dynamics,
               const std::map<std::int64_t, SimTime>& gates, Release release)
      : name_(trace.name),
        num_ports_(trace.num_ports),
        release_(std::move(release)) {
    for (const CoflowSpec& spec : trace.coflows) {
      workload::WorkloadEvent ev = workload::WorkloadEvent::arrival(spec);
      if (const auto it = gates.find(spec.id.value); it != gates.end()) {
        ev.data_ready = it->second;
      }
      insert(std::move(ev));
    }
    for (const DynamicsEvent& d : dynamics) {
      insert(workload::WorkloadEvent::dynamics_at(d));
    }
  }

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] int num_ports() const override { return num_ports_; }
  [[nodiscard]] SimTime peek_next_time() override {
    return cursor_ < events_.size() ? events_[cursor_].time : kNever;
  }
  [[nodiscard]] workload::WorkloadEvent next() override {
    return std::move(events_[cursor_++]);
  }
  void on_coflow_complete(const CoflowRecord& rec, SimTime now) override {
    if (!release_) return;
    for (CoflowSpec& spec : release_(rec, now)) {
      insert(workload::WorkloadEvent::arrival(std::move(spec)));
    }
  }

 private:
  /// Keeps the unconsumed events in (time, arrival id) order; same-time
  /// dynamics keep the order they were given in.
  void insert(workload::WorkloadEvent ev) {
    const auto key = [](const workload::WorkloadEvent& e) {
      return std::make_pair(
          e.time, e.kind == workload::WorkloadEvent::Kind::kArrival
                      ? e.coflow.id.value
                      : std::numeric_limits<std::int64_t>::min());
    };
    const auto pos = std::upper_bound(
        events_.begin() + static_cast<std::ptrdiff_t>(cursor_), events_.end(),
        ev, [&](const workload::WorkloadEvent& a,
                const workload::WorkloadEvent& b) { return key(a) < key(b); });
    events_.insert(pos, std::move(ev));
  }

  std::string name_;
  int num_ports_ = 0;
  Release release_;
  std::vector<workload::WorkloadEvent> events_;
  std::size_t cursor_ = 0;
};

/// A trace with its dynamics, data gates (CoflowId -> release instant) and
/// reactive releases as one source (see TestWorkload).
inline std::shared_ptr<TestWorkload> stream_of(
    const trace::Trace& trace, const std::vector<DynamicsEvent>& dynamics = {},
    const std::map<std::int64_t, SimTime>& gates = {},
    TestWorkload::Release release = nullptr) {
  return std::make_shared<TestWorkload>(trace, dynamics, gates,
                                        std::move(release));
}

/// The loop a production-vs-reference matrix cell runs on.
enum class Loop {
  kProduction,  // the production engine, with its quiescent skip
  kEveryEpoch,  // the production engine, scheduling every epoch
  kReference,   // the oracle side on the reference engine
};

[[nodiscard]] inline const char* loop_name(Loop loop) {
  switch (loop) {
    case Loop::kProduction:
      return "skip";
    case Loop::kEveryEpoch:
      return "everyepoch";
    case Loop::kReference:
      return "refengine";
  }
  return "?";
}

/// Runs `source` through `sched` on `loop`. `oracle` marks the reference
/// side of a diff: kReference moves only that side onto the reference
/// engine, so the production side always runs on the production engine.
[[nodiscard]] inline SimResult run_on(
    Loop loop, bool oracle, std::shared_ptr<workload::WorkloadSource> source,
    Scheduler& sched, const SimConfig& cfg) {
  if (loop == Loop::kReference && oracle) {
    return reference::reference_simulate(std::move(source), sched, cfg);
  }
  if (loop == Loop::kEveryEpoch) {
    reference::EveryEpoch every_epoch(sched);
    return simulate(std::move(source), every_epoch, cfg);
  }
  return simulate(std::move(source), sched, cfg);
}

/// CoflowState wrapper for scheduler-level unit tests (no engine). Each
/// CoFlow's slot is its index, as an engine that never reuses one would
/// give.
class StateSet {
 public:
  void add(const CoflowSpec& spec) {
    std::int64_t first = 0;
    for (const auto& s : states_) first += s->width();
    states_.push_back(std::make_unique<CoflowState>(spec, FlowId{first}));
    states_.back()->set_slot(static_cast<Slot>(ptrs_.size()));
    ptrs_.push_back(states_.back().get());
  }

  [[nodiscard]] std::span<CoflowState* const> active() const { return ptrs_; }
  [[nodiscard]] CoflowState& at(std::size_t i) { return *states_[i]; }
  [[nodiscard]] std::size_t size() const { return states_.size(); }

  /// Fires `sched`'s arrival hook for every CoFlow, as an engine admitting
  /// them would: the hook contract of sim/scheduler.h.
  void announce(Scheduler& sched, SimTime now = 0) const {
    for (CoflowState* c : ptrs_) sched.on_coflow_arrival(*c, now);
  }

  /// Completes flow `flow` of CoFlow `i` at `now` and fires `sched`'s flow
  /// hook, in the engine's order.
  void complete(Scheduler& sched, std::size_t i, std::size_t flow,
                SimTime now) {
    CoflowState& c = *states_[i];
    FlowState& f = c.flows()[flow];
    c.on_flow_complete(f, now);
    sched.on_flow_complete(c, f, now);
  }

 private:
  std::vector<std::unique_ptr<CoflowState>> states_;
  std::vector<CoflowState*> ptrs_;
};

}  // namespace saath::testing
