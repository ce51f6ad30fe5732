#include "service/ingress.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <tuple>

#include "common/expect.h"
#include "replay/journal.h"

namespace saath::service {

namespace {

[[nodiscard]] std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Merge ordering key: time, then arrival < gate < dynamics, then event
/// *content* — never session identity — so the merged stream is invariant
/// to which connection carried which event and to reconnection order after
/// a crash. Same-time events of different kinds commute inside one engine
/// epoch (arrivals stage, gates earliest-win, dynamics apply in a separate
/// phase), so the rank only has to be *some* fixed order; arrivals first
/// also keeps the engine's ascending-id tie check trivially satisfied.
struct MergeKey {
  SimTime time;
  int rank;
  std::int64_t a;
  std::int64_t b;
  std::uint64_t c;

  [[nodiscard]] static MergeKey of(const workload::WorkloadEvent& ev) {
    switch (ev.kind) {
      case workload::WorkloadEvent::Kind::kArrival:
        return {ev.time, 0, ev.coflow.id.value, 0, 0};
      case workload::WorkloadEvent::Kind::kDataAvailable:
        return {ev.time, 1, ev.gated.value, 0, 0};
      case workload::WorkloadEvent::Kind::kDynamics:
        return {ev.time, 2, ev.dynamics.port,
                static_cast<std::int64_t>(ev.dynamics.kind),
                std::bit_cast<std::uint64_t>(ev.dynamics.capacity_factor)};
    }
    return {ev.time, 3, 0, 0, 0};
  }

  [[nodiscard]] bool operator<(const MergeKey& o) const {
    return std::tie(time, rank, a, b, c) <
           std::tie(o.time, o.rank, o.a, o.b, o.c);
  }
};

}  // namespace

const char* accept_name(Accept a) {
  switch (a) {
    case Accept::kOk: return "ok";
    case Accept::kOutOfOrder: return "out-of-order";
    case Accept::kTieOrder: return "tie-order";
    case Accept::kDuplicateId: return "duplicate-id";
    case Accept::kMalformed: return "malformed";
    case Accept::kClosed: return "closed";
  }
  return "?";
}

IngressQueue::IngressQueue(IngressOptions opts) : opts_(opts) {
  SAATH_EXPECTS(opts_.num_ports > 0);
}

std::uint32_t IngressQueue::open_session(std::string name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t sid = next_sid_++;
  Session s;
  s.name = std::move(name);
  sessions_.emplace(sid, std::move(s));
  ++sessions_opened_;
  ++stats_.sessions_opened;
  cv_.notify_all();
  return sid;
}

void IngressQueue::finish_session(std::uint32_t sid) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(sid);
  if (it == sessions_.end()) return;
  it->second.finished = true;
  it->second.reacting = false;
  cv_.notify_all();
}

Accept IngressQueue::validate(const Session& s,
                              const workload::WorkloadEvent& ev) const {
  using Kind = workload::WorkloadEvent::Kind;
  if (closed_ || s.finished) return Accept::kClosed;
  // Well-formedness against this fabric (the engine's spec check and
  // kBadDynamics posture, but at the edge where the reject can still be
  // answered to the specific client that sent it).
  if (ev.kind == Kind::kArrival) {
    if (ev.coflow.id.value < 0 || ev.coflow.arrival != ev.time ||
        spec_defect(ev.coflow, opts_.num_ports) != nullptr) {
      return Accept::kMalformed;
    }
  } else if (ev.kind == Kind::kDynamics) {
    if (ev.dynamics.port < 0 || ev.dynamics.port >= opts_.num_ports ||
        ev.dynamics.capacity_factor < 0 || ev.dynamics.capacity_factor > 1) {
      return Accept::kMalformed;
    }
  } else if (ev.kind == Kind::kDataAvailable) {
    if (ev.gated.value < 0) return Accept::kMalformed;
  }
  // Time ordering is fenced against the *release watermark* — events the
  // engine already consumed cannot be preceded — NOT against the session's
  // own previous pushes: a reactive client legally answers a completion at
  // t with children at t while later script events already sit queued
  // (offline, the engine's lazy pull would never have consumed those later
  // events yet). Queued events are time-sorted at insertion, so the engine
  // still receives a monotone stream.
  if (ev.time < watermark_) {
    return Accept::kOutOfOrder;
  }
  if (ev.kind == Kind::kArrival) {
    if (ev.time == watermark_ &&
        ev.coflow.id.value <= watermark_arrival_id_) {
      return Accept::kTieOrder;
    }
    if (accepted_ids_.count(ev.coflow.id.value) != 0) {
      return Accept::kDuplicateId;
    }
  } else if (ev.time == watermark_ && !at_watermark_lines_.empty() &&
             at_watermark_lines_.count(replay::format_event_line(ev)) != 0) {
    // Exact re-send of an already-released watermark-instant event — the
    // one duplicate shape a re-driven restart script can produce that the
    // time checks cannot catch.
    return Accept::kDuplicateId;
  }
  return Accept::kOk;
}

void IngressQueue::set_reactive(std::uint32_t sid) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(sid);
  if (it == sessions_.end()) return;
  it->second.reactive = true;
}

void IngressQueue::note_done(std::uint32_t sid) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(sid);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  s.idle = false;
  ++s.dones_routed;
  if (s.reactive && !s.finished) s.reacting = true;
}

void IngressQueue::set_idle(std::uint32_t sid, std::int64_t dones_seen) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(sid);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  // Stale IDLE: it crossed a DONE on the wire — the client is about to
  // read that completion and react further. Keep blocking.
  if (dones_seen >= 0 && dones_seen < s.dones_routed) return;
  s.idle = true;
  s.reacting = false;
  cv_.notify_all();
}

Accept IngressQueue::push(std::uint32_t sid, workload::WorkloadEvent ev) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(sid);
  if (it == sessions_.end()) return Accept::kClosed;
  Session& s = it->second;
  // Any push (accepted or not) ends the session's declared idleness: the
  // client is mid-reaction and will re-IDLE (or FIN) when its burst ends.
  s.idle = false;
  const Accept verdict = validate(s, ev);
  if (verdict != Accept::kOk) {
    ++s.rejected;
    ++stats_.rejected;
    return verdict;
  }
  if (ev.kind == workload::WorkloadEvent::Kind::kArrival) {
    accepted_ids_.insert(ev.coflow.id.value);
  }
  // Sorted insert: a reaction-window push may precede queued later events.
  const MergeKey key = MergeKey::of(ev);
  const auto pos = std::upper_bound(
      s.queue.begin(), s.queue.end(), key,
      [](const MergeKey& k, const Pending& p) { return k < MergeKey::of(p.ev); });
  s.queue.insert(pos, Pending{std::move(ev), steady_ns()});
  ++s.accepted;
  ++stats_.pushed;
  cv_.notify_all();
  return Accept::kOk;
}

bool IngressQueue::merge_ready() const {
  if (!closed_ && opts_.expected_clients > 0 &&
      sessions_opened_ < opts_.expected_clients) {
    return false;
  }
  bool any_head = false;
  for (const auto& [sid, s] : sessions_) {
    (void)sid;
    // A reacting session's answer to a completion may merge ahead of
    // anything queued anywhere — the minimum is unknowable until it
    // answers (IDLE or FIN), queued events notwithstanding.
    if (s.reacting && !closed_) return false;
    if (!s.queue.empty()) {
      any_head = true;
    } else if (!s.finished && !s.idle && !closed_) {
      // An open session with an empty queue could still produce the
      // globally-earliest event — the merge minimum is not yet knowable.
      // (An idle session declared it will not push until it reacts to a
      // completion, so it cannot hold the minimum.)
      return false;
    }
  }
  return any_head;
}

bool IngressQueue::drained() const {
  if (!closed_) {
    if (opts_.expected_clients <= 0) return false;
    if (sessions_opened_ < opts_.expected_clients) return false;
    for (const auto& [sid, s] : sessions_) {
      (void)sid;
      if (!s.finished) return false;
    }
  }
  for (const auto& [sid, s] : sessions_) {
    (void)sid;
    if (!s.queue.empty()) return false;
  }
  return true;
}

bool IngressQueue::idle_quiet() const {
  if (!closed_ && opts_.expected_clients > 0 &&
      sessions_opened_ < opts_.expected_clients) {
    return false;
  }
  if (sessions_.empty()) return false;
  bool any_open = false;
  for (const auto& [sid, s] : sessions_) {
    (void)sid;
    if (s.reacting && !closed_) return false;
    if (!s.queue.empty()) return false;
    if (!s.finished) {
      if (!s.idle) return false;
      any_open = true;
    }
  }
  // All-finished-and-empty is drained(), a permanent kNever; this state is
  // the transient one (idle sessions may yet push off a completion).
  return any_open;
}

IngressQueue::Session* IngressQueue::min_head() {
  Session* best = nullptr;
  MergeKey best_key{};
  std::uint32_t best_sid = 0;
  for (auto& [sid, s] : sessions_) {
    if (s.queue.empty()) continue;
    const MergeKey key = MergeKey::of(s.queue.front().ev);
    if (best == nullptr || key < best_key ||
        (!(best_key < key) && sid < best_sid)) {
      best = &s;
      best_key = key;
      best_sid = sid;
    }
  }
  return best;
}

SimTime IngressQueue::blocking_peek() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock,
           [this] { return merge_ready() || drained() || idle_quiet(); });
  if (!merge_ready()) return kNever;  // drained, or every session idle
  return min_head()->queue.front().ev.time;
}

workload::WorkloadEvent IngressQueue::pop() {
  const std::lock_guard<std::mutex> lock(mu_);
  Session* best = min_head();
  SAATH_EXPECTS(best != nullptr);
  Pending p = std::move(best->queue.front());
  best->queue.pop_front();
  // The watermark advances at the hand-to-engine moment — the same moment
  // RecordingSource journals the event — so the restart reject state
  // rebuilt from the journal agrees with it exactly. Events merely queued
  // (or peeked) are NOT fenced: a reactive client may still introduce an
  // earlier event in response to a completion, exactly as an offline
  // reactive source grows an earlier event off on_coflow_complete().
  const workload::WorkloadEvent& ev = p.ev;
  if (ev.time > watermark_) {
    watermark_ = ev.time;
    watermark_arrival_id_ = -1;
    at_watermark_lines_.clear();
  }
  if (ev.kind == workload::WorkloadEvent::Kind::kArrival) {
    watermark_arrival_id_ = std::max(watermark_arrival_id_, ev.coflow.id.value);
  } else {
    at_watermark_lines_.insert(replay::format_event_line(ev));
  }
  ++stats_.released;
  stats_.wait_latency.record(static_cast<double>(steady_ns() - p.push_ns) *
                             1e-9);
  return std::move(p.ev);
}

void IngressQueue::adopt_restart_state(
    SimTime watermark, std::vector<std::int64_t> admitted,
    std::vector<std::string> at_watermark_events) {
  const std::lock_guard<std::mutex> lock(mu_);
  watermark_ = watermark;
  watermark_arrival_id_ = -1;
  at_watermark_lines_.clear();
  accepted_ids_.clear();
  accepted_ids_.insert(admitted.begin(), admitted.end());
  for (std::string& line : at_watermark_events) {
    if (line.empty()) continue;
    if (line[0] == 'A') {
      if (auto ev = replay::parse_event_line(line, 0);
          ev.has_value() &&
          ev->kind == workload::WorkloadEvent::Kind::kArrival) {
        watermark_arrival_id_ =
            std::max(watermark_arrival_id_, ev->coflow.id.value);
      }
    } else {
      at_watermark_lines_.insert(std::move(line));
    }
  }
}

void IngressQueue::close_all() {
  const std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

IngressStats IngressQueue::stats_snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  IngressStats out = stats_;
  std::vector<std::pair<std::uint32_t, const Session*>> ordered;
  ordered.reserve(sessions_.size());
  for (const auto& [sid, s] : sessions_) ordered.emplace_back(sid, &s);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [sid, s] : ordered) {
    (void)sid;
    out.sessions.push_back(SessionCounters{s->name, s->accepted, s->rejected,
                                           s->finished, s->idle});
  }
  return out;
}

SimTime IngressQueue::watermark() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return watermark_;
}

}  // namespace saath::service
