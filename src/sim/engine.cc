#include "sim/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/expect.h"
#include "common/logging.h"
#include "trace/trace.h"
#include "workload/sources.h"

namespace saath {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::int64_t ns_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// One delta stream per Engine: atomic so concurrent engines (tests run
/// several) never alias, which would let a reused scheduler trust stale
/// caches across runs.
std::atomic<std::uint64_t> g_delta_stream{0};

}  // namespace

// ------------------------------------------------------------------ Engine

Engine::Engine(std::shared_ptr<workload::WorkloadSource> source,
               Scheduler& scheduler, SimConfig config)
    : source_(std::move(source)),
      scheduler_(scheduler),
      config_(config),
      fabric_(source_ ? source_->num_ports() : 0, config.port_bandwidth),
      rates_(source_ ? source_->num_ports() : 0) {
  SAATH_EXPECTS(source_ != nullptr);
  SAATH_EXPECTS(config_.delta > 0);
  result_.scheduler = scheduler_.name();
  result_.trace = source_->name();
  // The engine delivers every state change through the lifecycle hooks and
  // the dirty-set, so its deltas are precise from the first epoch on.
  delta_.stream_id = ++g_delta_stream;
}

Engine::Engine(trace::Trace trace, Scheduler& scheduler, SimConfig config)
    : Engine(std::make_shared<workload::TraceSource>(std::move(trace)),
             scheduler, config) {}

void Engine::set_result_sink(ResultSink* sink) { sink_ = sink; }

void Engine::record_input_fault(InputFault::Kind kind, SimTime time,
                                std::int64_t id, std::string detail) {
  ++stats_.rejected_events;
  if (stats_.input_faults.size() >= EngineStats::kMaxInputFaults) return;
  stats_.input_faults.push_back({kind, time, id, std::move(detail)});
}

void Engine::publish_telemetry() {
  telemetry_.epochs.store(stats_.epochs, std::memory_order_relaxed);
  telemetry_.live_coflows.store(static_cast<std::int64_t>(active_.size()),
                                std::memory_order_relaxed);
  telemetry_.completed_coflows.store(completed_count_,
                                     std::memory_order_relaxed);
  telemetry_.quarantined_now.store(
      static_cast<std::int64_t>(quarantined_.size()),
      std::memory_order_relaxed);
  telemetry_.abandoned.store(
      static_cast<std::int64_t>(stats_.abandoned_coflow_ids.size()),
      std::memory_order_relaxed);
  telemetry_.source_events.store(stats_.source_events,
                                 std::memory_order_relaxed);
  telemetry_.rejected_events.store(stats_.rejected_events,
                                   std::memory_order_relaxed);
  telemetry_.sim_now.store(now_, std::memory_order_relaxed);
}

void Engine::pull_due_source_events() {
  SAATH_EXPECTS(staged_arrivals_.empty());
  for (;;) {
    const SimTime peek = source_->peek_next_time();
    if (peek == kNever || peek > now_) break;
    workload::WorkloadEvent ev = source_->next();
    ++stats_.source_events;
    if (config_.strict_input) {
      SAATH_EXPECTS_MSG(ev.time >= last_source_time_,
                        "WorkloadSource ordering invariant violated: event "
                        "times must be non-decreasing");
    } else if (ev.time < last_source_time_) {
      record_input_fault(InputFault::Kind::kOutOfOrder, ev.time,
                         ev.kind == workload::WorkloadEvent::Kind::kArrival
                             ? ev.coflow.id.value
                             : -1,
                         "event time went backwards");
      continue;  // drop; the ordering fence keeps its last good position
    }
    if (ev.time > last_source_time_) {
      last_arrival_id_ = std::numeric_limits<std::int64_t>::min();
    }
    last_source_time_ = ev.time;
    switch (ev.kind) {
      case workload::WorkloadEvent::Kind::kArrival:
        if (config_.strict_input) {
          SAATH_EXPECTS(ev.coflow.arrival == ev.time);
          SAATH_EXPECTS(!ev.coflow.flows.empty());
          SAATH_EXPECTS_MSG(ev.coflow.id.value > last_arrival_id_,
                            "WorkloadSource ordering invariant violated: "
                            "arrival ties must be emitted in ascending "
                            "CoflowId order");
        } else {
          if (ev.coflow.arrival != ev.time) {
            record_input_fault(InputFault::Kind::kArrivalMismatch, ev.time,
                               ev.coflow.id.value,
                               "coflow.arrival != event time");
            break;
          }
          if (const char* defect =
                  spec_defect(ev.coflow, fabric_.num_ports())) {
            record_input_fault(InputFault::Kind::kMalformedSpec, ev.time,
                               ev.coflow.id.value, defect);
            break;
          }
          // Duplicate before tie-order: a same-tick re-emission of an
          // admitted id violates both, and the duplicate is the root cause.
          // Insertion only happens on full acceptance so a dropped event
          // never poisons the id set.
          if (admitted_ids_.count(ev.coflow.id.value) > 0) {
            record_input_fault(InputFault::Kind::kDuplicateId, ev.time,
                               ev.coflow.id.value,
                               "CoflowId already admitted this run");
            break;
          }
          if (ev.coflow.id.value <= last_arrival_id_) {
            record_input_fault(InputFault::Kind::kTieOrder, ev.time,
                               ev.coflow.id.value,
                               "same-time arrivals out of CoflowId order");
            break;
          }
          admitted_ids_.insert(ev.coflow.id.value);
        }
        last_arrival_id_ = ev.coflow.id.value;
        staged_arrivals_.push_back({std::move(ev.coflow), ev.data_ready});
        break;
      case workload::WorkloadEvent::Kind::kDynamics:
        if (!config_.strict_input) {
          const DynamicsEvent& d = ev.dynamics;
          if (d.port < 0 || d.port >= fabric_.num_ports()) {
            record_input_fault(InputFault::Kind::kBadDynamics, ev.time, -1,
                               "dynamics port outside the fabric");
            break;
          }
          if (d.kind == DynamicsEvent::Kind::kStragglerStart &&
              (d.capacity_factor < 0.0 || d.capacity_factor > 1.0)) {
            record_input_fault(InputFault::Kind::kBadDynamics, ev.time, -1,
                               "capacity factor outside [0, 1]");
            break;
          }
        }
        due_dynamics_.push_back(ev.dynamics);
        break;
      case workload::WorkloadEvent::Kind::kDataAvailable: {
        // Earliest release wins (kNever = no release yet) — a later
        // duplicate must not push an already-recorded release out.
        // Entries for ids that never arrive (pre-arrival releases are
        // consumed at admission; releases for already-finished CoFlows or
        // invalid ids are source anomalies) persist to run end — bounded
        // by such events, not by the workload.
        const auto [it, inserted] =
            data_available_at_.try_emplace(ev.gated, ev.time);
        if (!inserted && (it->second == kNever || ev.time < it->second)) {
          it->second = ev.time;
        }
        break;
      }
    }
  }
}

void Engine::admit_coflow(CoflowSpec spec, SimTime data_ready) {
  const CoflowId id = spec.id;
  ++stats_.arrivals_admitted;
  CoflowState& state = own(
      std::make_unique<CoflowState>(std::move(spec), FlowId{next_flow_id_}));
  next_flow_id_ += state.width();
  // Effective release instant = earliest of any already-recorded release
  // (a kDataAvailable delivered in this very epoch's pull, or restored from
  // a checkpoint — which must NOT be clobbered by the arrival's own field)
  // and the arrival-carried data_ready. kNever means "no release known yet";
  // data_ready <= now carries no gating information.
  SimTime release = 0;
  bool gate_known = false;
  if (const auto it = data_available_at_.find(id);
      it != data_available_at_.end()) {
    release = it->second;
    gate_known = true;
  }
  if (data_ready == kNever || data_ready > now_) {
    if (!gate_known || release == kNever ||
        (data_ready != kNever && data_ready < release)) {
      release = data_ready;
    }
    gate_known = true;
  }
  if (gate_known && (release == kNever || release > now_)) {
    data_available_at_[id] = release;
    state.data_available = false;
  } else if (gate_known) {
    // Already released — nothing for the flip loop to consume later.
    data_available_at_.erase(id);
  }
  active_.push_back(&state);
  // Zero-byte flows are born finished: their completion event exists
  // before any rate assignment ever touches them.
  push_completion_events(state);
  scheduler_.on_coflow_arrival(state, now_);
  delta_.mark(&state);
  schedule_dirty_ = true;
}

void Engine::admit_arrivals() {
  // Stage every due source event (non-arrivals route to their phase:
  // dynamics after admission, gate updates into the availability map), then
  // admit the staged arrivals in stream order.
  pull_due_source_events();
  for (StagedArrival& staged : staged_arrivals_) {
    admit_coflow(std::move(staged.spec), staged.data_ready);
  }
  staged_arrivals_.clear();
  // Flip data-availability gates whose release time has passed. The entry
  // is consumed by the flip (ids are unique per run), so erase it — on a
  // streamed workload the map must stay O(live gated), not O(total).
  for (CoflowState* c : active_) {
    if (c->data_available) continue;
    const auto it = data_available_at_.find(c->id());
    if (it == data_available_at_.end() ||
        (it->second != kNever && it->second <= now_)) {
      c->data_available = true;
      delta_.mark(c);
      schedule_dirty_ = true;
      if (it != data_available_at_.end()) data_available_at_.erase(it);
    }
  }
}

void Engine::apply_dynamics(const DynamicsEvent& ev) {
  schedule_dirty_ = true;
  switch (ev.kind) {
    case DynamicsEvent::Kind::kNodeFailure:
      for (CoflowState* c : active_) {
        // The restart zeroes rates behind the RateAssignment's back; pull
        // the dying flows out of the port accumulators first.
        for (const auto& f : c->flows()) {
          if (!f.finished() && f.rate() > 0 &&
              (f.src() == ev.port || f.dst() == ev.port)) {
            rates_.flow_stopped(f);
          }
        }
        if (c->restart_flows_on_port(ev.port, now_) > 0) {
          c->dynamics_flagged = true;
          delta_.mark_requeue(c);
          // The restart invalidated the flows' queued events. Normal
          // flows re-enter the heap when a schedule rates them again,
          // but a zero-byte flow keeps a valid finish instant with no
          // rate — re-push or it only completes once re-rated (a scan
          // advance would complete it immediately).
          push_completion_events(*c);
        }
      }
      SAATH_LOG_INFO("t=%.3fs node failure at port %d", to_seconds(now_),
                     ev.port);
      break;
    case DynamicsEvent::Kind::kStragglerStart:
      fabric_.set_port_capacity_factor(ev.port, ev.capacity_factor);
      for (CoflowState* c : active_) {
        for (const auto& f : c->flows()) {
          if (!f.finished() && (f.src() == ev.port || f.dst() == ev.port)) {
            c->dynamics_flagged = true;
            delta_.mark_requeue(c);
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

void Engine::process_dynamics() {
  for (const DynamicsEvent& ev : due_dynamics_) apply_dynamics(ev);
  due_dynamics_.clear();
}

SAATH_HOT_NOALLOC void Engine::compute_schedule() {
  const auto t0 = Clock::now();
  ++rounds_;
  fabric_.reset();
  // begin_epoch zeroes exactly the flows the previous epoch rated — the
  // old O(all flows) blank-slate loop is gone.
  rates_.begin_epoch(now_);
  scheduler_.schedule(now_, active_, fabric_, rates_, delta_);
  delta_.clear_marks();
  // §4.3 un-availability: a schedule handed to a CoFlow whose data is not
  // ready wastes the slot — the rates are nullified but the port budget the
  // scheduler spent is NOT refunded.
  for (CoflowState* c : active_) {
    if (!c->data_available) rates_.nullify(*c);
  }
  verify_capacity();
  for (const auto& touch : rates_.touched()) {
    if (heap_.push(touch.flow, touch.coflow)) ++stats_.heap_pushes;
  }
  schedule_dirty_ = false;
  schedule_valid_until_ = scheduler_.schedule_valid_until(now_, active_);
  scheduled_capacity_version_ = fabric_.capacity_version();
  if (!finished_slots_.empty()) reclaim_finished();
  stats_.schedule_ns += ns_since(t0);
}

SAATH_HOT_NOALLOC void Engine::reclaim_finished() {
  // Safe point (see header): the delta naming these CoFlows was consumed by
  // the schedule() call above, Saath/Aalo erased them from their maintained
  // structures (by id / at the hook), the admission-replay fences already
  // re-recorded past their ranks, and begin_epoch() folded the last touched
  // set that could reference their flows. The completion heap holds nothing
  // of theirs: each flow finished when its entry was popped.
  for (const Slot slot : finished_slots_) {
    for (const FlowState& f : coflows_[slot]->flows()) {
      SAATH_EXPECTS(f.heap_pos() == FlowState::kNoHeapPos);
    }
    free_slot(slot);
  }
  stats_.reclaimed_coflows += static_cast<std::int64_t>(finished_slots_.size());
  finished_slots_.clear();
}

CoflowState& Engine::own(std::unique_ptr<CoflowState> state) {
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<Slot>(coflows_.size()));
    coflows_.emplace_back();
  }
  const Slot slot = free_slots_.back();
  free_slots_.pop_back();
  state->set_slot(slot);
  coflows_[slot] = std::move(state);
  return *coflows_[slot];
}

void Engine::free_slot(Slot slot) {
  coflows_[slot].reset();
  free_slots_.push_back(slot);
}

void Engine::verify_capacity() const {
  // O(ports): the RateAssignment maintained the per-port sums as deltas.
  // The accumulators carry floating-point residue from the +=/-= stream, so
  // the "no negative allocation" sanity bound is relative to the bandwidth.
  const Rate residue = fabric_.port_bandwidth() * 1e-6 + Fabric::kRateEpsilon;
  for (PortIndex p = 0; p < fabric_.num_ports(); ++p) {
    const Rate send = rates_.send_allocated(p);
    const Rate recv = rates_.recv_allocated(p);
    SAATH_EXPECTS(send >= -residue);
    SAATH_EXPECTS(recv >= -residue);
    // The overdraw bound tolerates the same accumulator residue: a port
    // derated to zero capacity (node failure) legitimately reads a few
    // epsilon of leftover += / -= noise, not an overdraw.
    const Rate cap_s = fabric_.send_capacity(p) * (1.0 + 1e-6) + residue;
    const Rate cap_r = fabric_.recv_capacity(p) * (1.0 + 1e-6) + residue;
    const bool over_send = send > cap_s;
    const bool over_recv = recv > cap_r;
    if (over_send || over_recv) {
      const char* dir = over_send ? "sender uplink" : "receiver downlink";
      const Rate allocated = over_send ? send : recv;
      const Rate cap =
          over_send ? fabric_.send_capacity(p) : fabric_.recv_capacity(p);
      throw std::logic_error(
          "scheduler '" + scheduler_.name() + "' overdrew " + dir + " of port " +
          std::to_string(p) + " at t=" + std::to_string(to_seconds(now_)) +
          "s: allocated " + std::to_string(allocated) + " B/s of " +
          std::to_string(cap) + " B/s capacity");
    }
  }
#ifndef NDEBUG
  // Assertion builds cross-check the accumulators against a fresh scan —
  // this is what catches a scheduler mutating rates behind the view's back.
  std::vector<Rate> send(static_cast<std::size_t>(fabric_.num_ports()), 0.0);
  std::vector<Rate> recv(static_cast<std::size_t>(fabric_.num_ports()), 0.0);
  for (const CoflowState* c : active_) {
    for (const auto& f : c->flows()) {
      if (f.finished()) continue;
      send[static_cast<std::size_t>(f.src())] += f.rate();
      recv[static_cast<std::size_t>(f.dst())] += f.rate();
    }
  }
  const Rate tol =
      std::max(1.0, fabric_.port_bandwidth()) * 1e-6 + Fabric::kRateEpsilon;
  for (PortIndex p = 0; p < fabric_.num_ports(); ++p) {
    const auto i = static_cast<std::size_t>(p);
    SAATH_ENSURES(std::abs(send[i] - rates_.send_allocated(p)) <= tol);
    SAATH_ENSURES(std::abs(recv[i] - rates_.recv_allocated(p)) <= tol);
  }
#endif
}

SAATH_HOT_NOALLOC void Engine::push_completion_events(CoflowState& coflow) {
  for (auto& f : coflow.flows()) {
    if (heap_.push(&f, &coflow)) ++stats_.heap_pushes;
  }
}

// -------------------------------------------------------------- quarantine

void Engine::update_quarantine() {
  if (config_.max_stall_epochs <= 0) return;
  bool any_stalled = false;
  std::size_t w = 0;
  for (std::size_t r = 0; r < active_.size(); ++r) {
    CoflowState* c = active_[r];
    bool keep = true;
    // Stalled = schedulable (data available, work remaining) yet the round
    // that just ran rated none of its flows. rated_flows() is the O(1)
    // aggregate counter, read after the §4.3 nullification — a gated CoFlow
    // is also unrated, hence the data_available conjunct.
    if (!c->finished() && c->data_available && c->rated_flows() == 0) {
      ++c->stall_rounds;
      if (c->stall_rounds >= config_.max_stall_epochs) {
        ++stats_.quarantine_events;
        scheduler_.on_coflow_quarantined(*c, now_);
        c->stall_rounds = 0;
        if (c->requeue_attempts >= config_.max_requeue_attempts) {
          // Abandoned: the state is about to be freed, so the completion
          // heap must drop its flows' entries first — they hold pointers.
          stats_.abandoned_coflow_ids.push_back(c->id().value);
          SAATH_LOG_INFO("t=%.3fs abandoning stuck coflow %lld after %d "
                         "re-admissions",
                         to_seconds(now_),
                         static_cast<long long>(c->id().value),
                         c->requeue_attempts);
          for (const FlowState& f : c->flows()) heap_.erase(f);
          data_available_at_.erase(c->id());
          free_slot(c->slot());
        } else {
          // Exponential backoff in units of the stall window: the CoFlow
          // re-enters through on_coflow_arrival once the fabric has had
          // time to drain whatever starved it. The parked state stays
          // alive, so its flows' stale heap entries stay harmless: each is
          // dropped at the top or updated by the re-admission's push.
          const SimTime window = config_.delta * config_.max_stall_epochs;
          const int shift = std::min(c->requeue_attempts, 20);
          const SimTime release = now_ + (window << shift);
          stats_.quarantined_coflow_ids.push_back(c->id().value);
          quarantined_.push_back({c, release});
        }
        keep = false;
        schedule_dirty_ = true;
      } else {
        any_stalled = true;
      }
    } else {
      c->stall_rounds = 0;
    }
    if (keep) active_[w++] = c;
  }
  active_.resize(w);
  // While any CoFlow is mid-stall the skip must not engage: the counter
  // ticks once per *scheduling round*, and forcing a recompute keeps that
  // round once per epoch.
  if (any_stalled) schedule_dirty_ = true;
}

void Engine::release_quarantined() {
  if (quarantined_.empty()) return;
  std::size_t w = 0;
  for (std::size_t r = 0; r < quarantined_.size(); ++r) {
    Quarantined& q = quarantined_[r];
    if (q.release_at > now_) {
      quarantined_[w++] = q;
      continue;
    }
    CoflowState* c = q.state;
    ++c->requeue_attempts;
    ++stats_.requeue_admissions;
    active_.push_back(c);
    push_completion_events(*c);
    scheduler_.on_coflow_arrival(*c, now_);
    delta_.mark(c);
    schedule_dirty_ = true;
  }
  quarantined_.resize(w);
}

SimTime Engine::next_quarantine_release() const {
  SimTime best = kNever;
  for (const Quarantined& q : quarantined_) {
    if (best == kNever || q.release_at < best) best = q.release_at;
  }
  return best;
}

// ------------------------------------------------------------- checkpoints

void Engine::set_snapshot_hook(std::int64_t every_epochs, SnapshotHook hook) {
  SAATH_EXPECTS(every_epochs >= 0);
  snapshot_every_ = every_epochs;
  snapshot_hook_ = std::move(hook);
}

CoflowSnapshot Engine::snapshot_coflow(const CoflowState& c) const {
  CoflowSnapshot cs;
  cs.spec = c.spec();
  cs.first_flow_id = c.flows().front().id().value;
  cs.queue_index = c.queue_index;
  cs.deadline = c.deadline;
  cs.dynamics_flagged = c.dynamics_flagged;
  cs.data_available = c.data_available;
  cs.stall_rounds = c.stall_rounds;
  cs.requeue_attempts = c.requeue_attempts;
  cs.flows.reserve(c.flows().size());
  for (const FlowState& f : c.flows()) {
    FlowSnapshot fs;
    fs.sent_base = f.sent_base();
    fs.rate = f.rate();
    fs.anchor = f.anchor();
    fs.predicted_finish = f.predicted_finish();
    fs.finished = f.finished();
    fs.finish_time = f.finish_time();
    cs.flows.push_back(fs);
  }
  return cs;
}

EngineSnapshot Engine::make_snapshot() const {
  EngineSnapshot s;
  s.scheduler = result_.scheduler;
  s.trace = result_.trace;
  s.num_ports = fabric_.num_ports();
  s.now = now_;
  s.rounds = rounds_;
  s.epochs = stats_.epochs;
  s.next_flow_id = next_flow_id_;
  s.source_events_consumed = stats_.source_events;
  s.last_source_time = last_source_time_;
  s.last_arrival_id = last_arrival_id_;
  s.makespan = result_.makespan;
  s.active.reserve(active_.size());
  for (const CoflowState* c : active_) s.active.push_back(snapshot_coflow(*c));
  for (const Quarantined& q : quarantined_) {
    s.quarantined.push_back({snapshot_coflow(*q.state), q.release_at});
  }
  // Hash-map iteration order is not deterministic; the serialized form must
  // be, so sort everything that came out of one.
  for (const auto& [id, when] : data_available_at_) {
    s.data_gates.emplace_back(id.value, when);
  }
  std::sort(s.data_gates.begin(), s.data_gates.end());
  // Dynamics are applied in the epoch that pulls them, so none is ever
  // pending at the loop top, where snapshots are taken.
  SAATH_EXPECTS(due_dynamics_.empty());
  for (PortIndex p = 0; p < fabric_.num_ports(); ++p) {
    const double factor = fabric_.port_capacity_factor(p);
    if (factor != 1.0) s.capacity_factors.emplace_back(p, factor);
  }
  s.completed = result_.coflows;
  return s;
}

std::unique_ptr<CoflowState> Engine::rebuild_coflow(const CoflowSnapshot& cs) {
  auto state = std::make_unique<CoflowState>(cs.spec, FlowId{cs.first_flow_id});
  state->queue_index = cs.queue_index;
  state->deadline = cs.deadline;
  state->dynamics_flagged = cs.dynamics_flagged;
  state->data_available = cs.data_available;
  state->stall_rounds = cs.stall_rounds;
  state->requeue_attempts = cs.requeue_attempts;
  SAATH_EXPECTS(cs.flows.size() == state->flows().size());
  for (std::size_t i = 0; i < cs.flows.size(); ++i) {
    const FlowSnapshot& fs = cs.flows[i];
    if (fs.finished) {
      state->restore_flow_finished(i, fs.finish_time);
    } else {
      state->restore_flow_progress(i, fs.sent_base, fs.rate, fs.anchor,
                                   fs.predicted_finish);
    }
  }
  // Standing nonzero rates were restored behind the RateAssignment's back:
  // adopt them so the port accumulators balance and the next begin_epoch()
  // zeroes exactly this set, as the uninterrupted run's would have.
  for (FlowState& f : state->flows()) rates_.adopt(*state, f);
  return state;
}

void Engine::restore_snapshot(const EngineSnapshot& snap) {
  SAATH_EXPECTS_MSG(!running_, "restore_snapshot is pre-run only");
  SAATH_EXPECTS_MSG(active_.empty() && coflows_.empty() && now_ == 0,
                    "restore_snapshot needs a fresh engine");
  if (snap.scheduler != result_.scheduler) {
    throw std::invalid_argument(
        "checkpoint was taken under scheduler '" + snap.scheduler +
        "', engine runs '" + result_.scheduler + "'");
  }
  if (snap.num_ports != fabric_.num_ports()) {
    throw std::invalid_argument(
        "checkpoint fabric has " + std::to_string(snap.num_ports) +
        " ports, engine fabric has " + std::to_string(fabric_.num_ports()));
  }
  now_ = snap.now;
  rounds_ = snap.rounds;
  stats_.epochs = snap.epochs;
  next_flow_id_ = snap.next_flow_id;
  stats_.source_events = snap.source_events_consumed;
  last_source_time_ = snap.last_source_time;
  last_arrival_id_ = snap.last_arrival_id;
  result_.makespan = snap.makespan;
  result_.coflows = snap.completed;
  for (const auto& [id, when] : snap.data_gates) {
    data_available_at_[CoflowId{id}] = when;
  }
  for (const auto& [port, factor] : snap.capacity_factors) {
    fabric_.set_port_capacity_factor(port, factor);
  }
  // Open an epoch before adopting: track() keys on the epoch stamp, and a
  // fresh engine's stamp (0) collides with every flow's initial touch
  // stamp — adoption into epoch 0 would silently not record the touch.
  rates_.begin_epoch(now_);
  // Slots are re-derived, not read back: the active CoFlows take them in
  // snapshot order, then the quarantined ones.
  for (const CoflowSnapshot& cs : snap.active) {
    // Owned before the hook: an arrival the scheduler refuses (a queue
    // index it does not have) throws with every state still owned.
    CoflowState& c = own(rebuild_coflow(cs));
    active_.push_back(&c);
    push_completion_events(c);
    scheduler_.on_coflow_arrival(c, now_);
    delta_.mark(&c);
    if (!config_.strict_input) admitted_ids_.insert(c.id().value);
  }
  for (const QuarantineSnapshot& qs : snap.quarantined) {
    CoflowState& c = own(rebuild_coflow(qs.coflow));
    if (!config_.strict_input) admitted_ids_.insert(c.id().value);
    quarantined_.push_back({&c, qs.release_at});
  }
  if (!config_.strict_input) {
    for (const CoflowRecord& rec : result_.coflows) {
      admitted_ids_.insert(rec.id.value);
    }
  }
  // The restored scheduler state is cold; the fresh delta stream id makes
  // the first schedule() take every CoFlow as a candidate, which the
  // oracle-equality invariant makes bit-identical to the uninterrupted
  // run's incremental round.
  schedule_dirty_ = true;
}

SAATH_HOT_NOALLOC void Engine::complete_flow(CoflowState& coflow,
                                             FlowState& flow, SimTime at) {
  rates_.flow_stopped(flow);
  coflow.on_flow_complete(flow, at);
  scheduler_.on_flow_complete(coflow, flow, at);
  delta_.mark(&coflow);
  schedule_dirty_ = true;
  ++stats_.flow_completions;
}

SAATH_HOT_NOALLOC void Engine::harvest_completions(SimTime at) {
  std::size_t finished = 0;
  heap_.pop_due(at, [&](CoflowState& c, FlowState& f) {
    complete_flow(c, f, at);
    if (c.finished()) ++finished;
  });
  // Most harvests complete flows but no CoFlow; only one that finished a
  // CoFlow needs the compaction. It is stable: the active list keeps
  // admission order, which every order-sensitive consumer (and the
  // reference engine's scan) relies on.
  if (finished == 0) return;
  std::size_t w = 0;
  for (std::size_t r = 0; r < active_.size(); ++r) {
    if (active_[r]->finished()) {
      finalize_coflow(*active_[r], at);
    } else {
      active_[w++] = active_[r];
    }
  }
  active_.resize(w);
}

void Engine::finalize_coflow(CoflowState& coflow, SimTime at) {
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
  rec.flow_fcts_seconds.reserve(coflow.flows().size());
  rec.flow_sizes.reserve(coflow.flows().size());
  for (const auto& f : coflow.flows()) {
    rec.flow_fcts_seconds.push_back(to_seconds(f.finish_time() - coflow.arrival()));
    rec.flow_sizes.push_back(f.size());
  }
  result_.makespan = std::max(result_.makespan, at);
  data_available_at_.erase(coflow.id());
  telemetry_.completed_coflows.store(++completed_count_,
                                     std::memory_order_relaxed);
  if (sink_) sink_->on_coflow_complete(rec, at);
  // Reactive sources (DagSource) release dependent work off this feedback.
  source_->on_coflow_complete(rec, at);
  if (config_.record_results) result_.coflows.push_back(std::move(rec));
  // The state and its slot are freed at the next reclamation point (end of
  // the delta-consuming schedule()).
  finished_slots_.push_back(coflow.slot());
}

SAATH_HOT_NOALLOC void Engine::advance_until(SimTime epoch_end) {
  auto t0 = Clock::now();
  SimTime t = now_;
  while (!active_.empty()) {
    const SimTime next = heap_.next_time();
    if (next == kNever || next > epoch_end) {
      t = epoch_end;
      break;
    }
    t = std::max(t, next);
    const auto active_before = active_.size();
    harvest_completions(t);
    if (config_.reallocate_on_completion && active_.size() != active_before &&
        !active_.empty() && t < epoch_end) {
      now_ = t;
      stats_.advance_ns += ns_since(t0);
      compute_schedule();
      t0 = Clock::now();
    }
  }
  now_ = std::max(t, now_);
  stats_.advance_ns += ns_since(t0);
}

SimResult Engine::run() {
  SAATH_EXPECTS(!running_);
  running_ = true;
  const auto run_t0 = Clock::now();
  while (source_->peek_next_time() != kNever || !active_.empty() ||
         !quarantined_.empty()) {
    if (now_ > config_.max_sim_time) {
      // Name the stuck work: without the ids and the epoch, a starvation
      // hang is undebuggable from the exception alone. The full list also
      // lands in stats() so harnesses can consume it programmatically.
      for (const CoflowState* c : active_) {
        stats_.stuck_coflow_ids.push_back(c->id().value);
      }
      for (const Quarantined& q : quarantined_) {
        stats_.stuck_coflow_ids.push_back(q.state->id().value);
      }
      std::string stuck;
      constexpr std::size_t kMaxListed = 16;
      for (std::size_t i = 0;
           i < stats_.stuck_coflow_ids.size() && i < kMaxListed; ++i) {
        if (!stuck.empty()) stuck += ", ";
        stuck += std::to_string(stats_.stuck_coflow_ids[i]);
      }
      if (stats_.stuck_coflow_ids.size() > kMaxListed) stuck += ", ...";
      throw std::runtime_error(
          "Engine: exceeded max_sim_time at t=" +
          std::to_string(to_seconds(now_)) + "s (epoch " +
          std::to_string(rounds_) + ", scheduler '" + scheduler_.name() +
          "') with " + std::to_string(active_.size()) +
          " coflows unfinished [ids: " + stuck + "], " +
          std::to_string(quarantined_.size()) + " quarantined, source " +
          (source_->peek_next_time() != kNever ? "live" : "exhausted") +
          " (scheduler starving, or an unbounded source needs a horizon?)");
    }
    if (active_.empty()) {
      SimTime next_in = source_->peek_next_time();
      const SimTime release = next_quarantine_release();
      if (release != kNever && (next_in == kNever || release < next_in)) {
        next_in = release;
      }
      SAATH_EXPECTS(next_in != kNever);
      now_ = std::max(now_, next_in);
    }
    // Checkpoint instant: nothing is staged, no epoch is half-applied —
    // events due exactly at now_ have not been pulled yet, so a resumed run
    // re-pulls them from the journal suffix.
    if (snapshot_every_ > 0 && snapshot_hook_ && stats_.epochs > 0 &&
        stats_.epochs % snapshot_every_ == 0) {
      snapshot_hook_(make_snapshot());
    }
    const auto ingest_t0 = Clock::now();
    release_quarantined();
    admit_arrivals();
    process_dynamics();
    stats_.ingest_ns += ns_since(ingest_t0);
    ++stats_.epochs;
    const auto live = static_cast<std::int64_t>(active_.size());
    stats_.live_coflow_epoch_sum += live;
    stats_.peak_live_coflows = std::max(stats_.peak_live_coflows, live);
    publish_telemetry();
    // Quiescent-epoch skip: with no delta since the last assignment, an
    // unchanged capacity map, and the scheduler vouching that none of its
    // time-driven triggers (threshold crossings, deadlines) fired, a
    // recompute would reproduce the current rates — keep them instead.
    const bool quiescent =
        !schedule_dirty_ && now_ < schedule_valid_until_ &&
        fabric_.capacity_version() == scheduled_capacity_version_;
    if (!quiescent) {
      compute_schedule();
      update_quarantine();
    }
    advance_until(now_ + config_.delta);
  }
  publish_telemetry();
  std::sort(result_.coflows.begin(), result_.coflows.end(),
            [](const CoflowRecord& a, const CoflowRecord& b) {
              return a.id < b.id;
            });
  if (sink_) sink_->on_run_end(result_.makespan);
  stats_.run_wall_ns += ns_since(run_t0);
  running_ = false;
  return std::move(result_);
}

SimResult simulate(const trace::Trace& trace, Scheduler& scheduler,
                   const SimConfig& config) {
  Engine engine(trace, scheduler, config);
  return engine.run();
}

SimResult simulate(std::shared_ptr<workload::WorkloadSource> source,
                   Scheduler& scheduler, const SimConfig& config) {
  Engine engine(std::move(source), scheduler, config);
  return engine.run();
}

}  // namespace saath
