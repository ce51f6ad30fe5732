#include "reference/engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/expect.h"
#include "workload/sources.h"

namespace saath::reference {

namespace {

using Clock = std::chrono::steady_clock;

/// The earlier of two release instants; kNever is later than any instant.
[[nodiscard]] SimTime earlier(SimTime a, SimTime b) {
  if (a == kNever) return b;
  if (b == kNever) return a;
  return std::min(a, b);
}

void zero_rates(CoflowState& c, SimTime now) {
  for (FlowState& f : c.flows()) {
    if (!f.finished() && f.rate() != 0) f.set_rate(0, now);
  }
}

}  // namespace

ReferenceEngine::ReferenceEngine(
    std::shared_ptr<workload::WorkloadSource> source, Scheduler& scheduler,
    SimConfig config)
    : source_(std::move(source)),
      scheduler_(scheduler),
      config_(config),
      fabric_(source_ ? source_->num_ports() : 0, config.port_bandwidth) {
  SAATH_EXPECTS(source_ != nullptr);
  SAATH_EXPECTS(config_.delta > 0);
  if (config_.max_stall_epochs != 0 || !config_.strict_input ||
      !config_.record_results) {
    throw std::invalid_argument(
        "ReferenceEngine covers strict input with materialized results and "
        "no stall detector");
  }
  result_.scheduler = scheduler_.name();
  result_.trace = source_->name();
}

ReferenceEngine::ReferenceEngine(trace::Trace trace, Scheduler& scheduler,
                                 SimConfig config)
    : ReferenceEngine(std::make_shared<workload::TraceSource>(std::move(trace)),
                      scheduler, config) {}

void ReferenceEngine::pull_due_events() {
  for (;;) {
    const SimTime at = source_->peek_next_time();
    if (at == kNever || at > now_) return;
    workload::WorkloadEvent ev = source_->next();
    SAATH_EXPECTS(ev.time >= last_event_time_);
    last_event_time_ = ev.time;
    switch (ev.kind) {
      case workload::WorkloadEvent::Kind::kArrival:
        due_arrivals_.push_back(std::move(ev));
        break;
      case workload::WorkloadEvent::Kind::kDynamics:
        due_dynamics_.push_back(ev.dynamics);
        break;
      case workload::WorkloadEvent::Kind::kDataAvailable: {
        const auto gate = gate_until_.find(ev.gated.value);
        if (gate != gate_until_.end()) {
          gate->second = earlier(gate->second, ev.time);
        } else {
          // Not live yet (its arrival may be due in this very pull), or
          // already open: remember the release for its admission.
          const auto [it, inserted] =
              early_release_.try_emplace(ev.gated.value, ev.time);
          if (!inserted) it->second = earlier(it->second, ev.time);
        }
        break;
      }
    }
  }
}

void ReferenceEngine::admit(CoflowSpec spec, SimTime data_ready) {
  auto state = std::make_unique<CoflowState>(std::move(spec),
                                             FlowId{next_flow_id_});
  next_flow_id_ += state->width();
  // Every state is kept to the end, so its admission index is a slot no
  // other CoFlow ever holds.
  state->set_slot(static_cast<Slot>(coflows_.size()));
  const std::int64_t id = state->id().value;
  // A release that came before the arrival opens the gate; otherwise the
  // arrival's own data_ready does, if it lies in the future.
  if (const auto early = early_release_.find(id);
      early != early_release_.end()) {
    early_release_.erase(early);
  } else if (data_ready == kNever || data_ready > now_) {
    state->data_available = false;
    gate_until_[id] = data_ready;
  }
  active_.push_back(state.get());
  scheduler_.on_coflow_arrival(*state, now_);
  coflows_.push_back(std::move(state));
}

void ReferenceEngine::open_due_gates() {
  for (CoflowState* c : active_) {
    if (c->data_available) continue;
    const auto gate = gate_until_.find(c->id().value);
    SAATH_EXPECTS(gate != gate_until_.end());
    if (gate->second != kNever && gate->second <= now_) {
      c->data_available = true;
      gate_until_.erase(gate);
    }
  }
}

void ReferenceEngine::apply_dynamics(const DynamicsEvent& ev) {
  switch (ev.kind) {
    case DynamicsEvent::Kind::kNodeFailure:
      for (CoflowState* c : active_) {
        if (c->restart_flows_on_port(ev.port, now_) > 0) {
          c->dynamics_flagged = true;
        }
      }
      break;
    case DynamicsEvent::Kind::kStragglerStart:
      fabric_.set_port_capacity_factor(ev.port, ev.capacity_factor);
      for (CoflowState* c : active_) {
        for (const FlowState& f : c->flows()) {
          if (!f.finished() && (f.src() == ev.port || f.dst() == ev.port)) {
            c->dynamics_flagged = true;
            break;
          }
        }
      }
      break;
    case DynamicsEvent::Kind::kStragglerEnd:
      fabric_.set_port_capacity_factor(ev.port, 1.0);
      break;
  }
}

void ReferenceEngine::schedule() {
  ++stats_.rounds;
  fabric_.reset();
  for (CoflowState* c : active_) zero_rates(*c, now_);
  RateAssignment rates;
  rates.begin_epoch(now_);
  scheduler_.schedule(now_, active_, fabric_, rates);
  for (CoflowState* c : active_) {
    if (!c->data_available) zero_rates(*c, now_);
  }
  check_capacity();
}

void ReferenceEngine::check_capacity() const {
  const auto ports = static_cast<std::size_t>(fabric_.num_ports());
  std::vector<Rate> send(ports, 0.0);
  std::vector<Rate> recv(ports, 0.0);
  for (const CoflowState* c : active_) {
    for (const FlowState& f : c->flows()) {
      if (f.finished()) continue;
      send[static_cast<std::size_t>(f.src())] += f.rate();
      recv[static_cast<std::size_t>(f.dst())] += f.rate();
    }
  }
  // The production engine's tolerance: relative float slack plus an
  // absolute residue, so a port derated to zero is not an overdraw.
  const Rate residue = fabric_.port_bandwidth() * 1e-6 + Fabric::kRateEpsilon;
  for (PortIndex p = 0; p < fabric_.num_ports(); ++p) {
    const auto i = static_cast<std::size_t>(p);
    const Rate cap_s = fabric_.send_capacity(p);
    const Rate cap_r = fabric_.recv_capacity(p);
    const bool over_send = send[i] > cap_s * (1.0 + 1e-6) + residue;
    const bool over_recv = recv[i] > cap_r * (1.0 + 1e-6) + residue;
    if (over_send || over_recv) {
      throw std::logic_error(
          "scheduler '" + scheduler_.name() + "' overdrew " +
          (over_send ? "sender uplink" : "receiver downlink") + " of port " +
          std::to_string(p) + " at t=" + std::to_string(to_seconds(now_)) +
          "s: allocated " + std::to_string(over_send ? send[i] : recv[i]) +
          " B/s of " + std::to_string(over_send ? cap_s : cap_r) +
          " B/s capacity");
    }
  }
}

SimTime ReferenceEngine::earliest_finish() const {
  SimTime best = kNever;
  for (const CoflowState* c : active_) {
    for (const FlowState& f : c->flows()) {
      if (f.finished()) continue;
      best = earlier(best, f.predicted_finish());
    }
  }
  return best;
}

void ReferenceEngine::complete_due_flows(SimTime at) {
  bool any = false;
  for (CoflowState* c : active_) {
    for (FlowState& f : c->flows()) {
      if (f.finished()) continue;
      const SimTime finish = f.predicted_finish();
      if (finish == kNever || finish > at) continue;
      c->on_flow_complete(f, at);
      scheduler_.on_flow_complete(*c, f, at);
      ++stats_.flow_completions;
      any = true;
    }
  }
  if (!any) return;
  std::vector<CoflowState*> still_active;
  for (CoflowState* c : active_) {
    if (c->finished()) {
      finalize(*c, at);
    } else {
      still_active.push_back(c);
    }
  }
  active_ = std::move(still_active);
}

void ReferenceEngine::finalize(CoflowState& coflow, SimTime at) {
  scheduler_.on_coflow_complete(coflow, at);
  CoflowRecord rec;
  rec.id = coflow.id();
  rec.job = coflow.spec().job;
  rec.stage = coflow.spec().stage;
  rec.arrival = coflow.arrival();
  rec.finish = at;
  rec.width = coflow.width();
  rec.total_bytes = coflow.spec().total_bytes();
  rec.equal_flow_lengths = trace::has_equal_flow_lengths(coflow.spec());
  for (const FlowState& f : coflow.flows()) {
    rec.flow_fcts_seconds.push_back(to_seconds(f.finish_time() - coflow.arrival()));
    rec.flow_sizes.push_back(f.size());
  }
  result_.makespan = std::max(result_.makespan, at);
  // Reactive sources release dependent work off this feedback.
  source_->on_coflow_complete(rec, at);
  result_.coflows.push_back(std::move(rec));
}

void ReferenceEngine::advance_until(SimTime epoch_end) {
  const auto t0 = Clock::now();
  SimTime t = now_;
  while (!active_.empty()) {
    const SimTime next = earliest_finish();
    if (next == kNever || next > epoch_end) {
      t = epoch_end;
      break;
    }
    t = std::max(t, next);
    const std::size_t live_before = active_.size();
    complete_due_flows(t);
    if (config_.reallocate_on_completion && active_.size() != live_before &&
        !active_.empty() && t < epoch_end) {
      now_ = t;
      schedule();
    }
  }
  now_ = std::max(t, now_);
  stats_.advance_ns +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count();
}

SimResult ReferenceEngine::run() {
  while (source_->peek_next_time() != kNever || !active_.empty()) {
    if (now_ > config_.max_sim_time) {
      throw std::runtime_error(
          "ReferenceEngine: exceeded max_sim_time at t=" +
          std::to_string(to_seconds(now_)) + "s with " +
          std::to_string(active_.size()) + " coflows unfinished");
    }
    if (active_.empty()) now_ = std::max(now_, source_->peek_next_time());
    pull_due_events();
    for (workload::WorkloadEvent& ev : due_arrivals_) {
      admit(std::move(ev.coflow), ev.data_ready);
    }
    due_arrivals_.clear();
    open_due_gates();
    for (const DynamicsEvent& ev : due_dynamics_) apply_dynamics(ev);
    due_dynamics_.clear();
    schedule();
    advance_until(now_ + config_.delta);
  }
  std::sort(result_.coflows.begin(), result_.coflows.end(),
            [](const CoflowRecord& a, const CoflowRecord& b) {
              return a.id < b.id;
            });
  return std::move(result_);
}

SimResult reference_simulate(std::shared_ptr<workload::WorkloadSource> source,
                             Scheduler& scheduler, const SimConfig& config) {
  ReferenceEngine engine(std::move(source), scheduler, config);
  return engine.run();
}

SimResult reference_simulate(const trace::Trace& trace, Scheduler& scheduler,
                             const SimConfig& config) {
  ReferenceEngine engine(trace, scheduler, config);
  return engine.run();
}

}  // namespace saath::reference
