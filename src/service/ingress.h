// Thread-safe, deterministic ingress between client sessions and the engine.
//
// Client reader threads push events into per-session time-sorted queues;
// the engine's epoch loop pulls a deterministic k-way merge of the session
// heads. Two properties make a live multi-client daemon reproduce the
// offline single-source run bit-for-bit:
//
//  1. *Lock-step release.* blocking_peek() refuses to answer until every
//     open (un-FINished) session has a queued head — only then is the
//     globally-earliest next event knowable. One slow client therefore
//     pauses the simulation rather than forking its history; FIN (or
//     disconnect, which implies it) releases the barrier. Release is
//     additionally gated until `expected_clients` sessions have connected,
//     so a fast first client cannot start the run alone.
//
//  2. *Content-keyed merge.* Among session heads the merge picks the
//     minimum of (time, kind-rank arrival<gate<dynamics, content key:
//     CoflowId / gated id / (port, kind, factor bits)) — an ordering
//     independent of session numbering, so reconnecting clients in a
//     different order after a crash replays the identical stream. Events
//     identical under this key commute; the session index is only a final
//     stability tiebreak.
//
// Admission enforces the PR 5 source invariant *at the edge* with typed
// rejects (the service-facing mirror of the engine's strict_input=false
// machinery): monotonicity against the release watermark (the time of the
// last event handed to the engine — earlier-than-queued pushes are legal
// and insert in sorted position, mirroring a reactive source growing an
// earlier event off a completion), arrival-id tie order at the watermark,
// duplicate CoflowIds against every id ever accepted, and spec/dynamics
// well-formedness against the fabric. After a
// crash the watermark state is rebuilt from the journal
// (adopt_restart_state), so re-driven client scripts have their consumed
// prefix deterministically rejected and only the lost suffix re-ingested.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/histogram.h"
#include "common/time.h"
#include "workload/source.h"

namespace saath::service {

/// Typed admission verdicts; every non-kOk kind maps to a REJ wire line.
enum class Accept {
  kOk,
  kOutOfOrder,    // time before the session's last push or the watermark
  kTieOrder,      // same-time arrival with non-increasing CoflowId
  kDuplicateId,   // CoflowId already accepted (any session, any time)
  kMalformed,     // bad spec / dynamics out of range
  kClosed,        // session already FINished (or ingress drained)
};

[[nodiscard]] const char* accept_name(Accept a);

struct IngressOptions {
  int num_ports = 0;
  /// Sessions that must connect before any event is released to the
  /// engine (and that must all FIN before the stream drains). 0 = serve
  /// forever: the stream only drains via close_all().
  int expected_clients = 0;
};

struct SessionCounters {
  std::string name;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  bool finished = false;
  bool idle = false;
};

struct IngressStats {
  std::int64_t pushed = 0;
  std::int64_t rejected = 0;
  std::int64_t released = 0;  // handed to the engine
  std::int64_t sessions_opened = 0;
  /// Push-to-release wall latency in seconds: the time an accepted event
  /// waited in ingress before the engine's epoch loop consumed it (the
  /// engine schedules the epoch it pulls the event in).
  LogHistogram wait_latency{1e-9, 1.05, 512};
  std::vector<SessionCounters> sessions;
};

class IngressQueue {
 public:
  explicit IngressQueue(IngressOptions opts);

  // Client side (any thread) ---------------------------------------------
  [[nodiscard]] std::uint32_t open_session(std::string name);
  /// FIN or disconnect: no further pushes; queued events still release.
  void finish_session(std::uint32_t sid);
  [[nodiscard]] Accept push(std::uint32_t sid, workload::WorkloadEvent ev);
  /// Declares the session reactive (the REACTIVE verb, sent before any
  /// events): its future input depends on completions, so every DONE
  /// routed to it (note_done, called by the daemon BEFORE the DONE leaves
  /// the socket) puts it in the *reacting* state — the merge is vetoed
  /// until the session answers with events-then-IDLE or FIN, exactly as an
  /// offline reactive source injects its answer synchronously inside the
  /// engine's advance. Without the declaration a DONE is fire-and-forget
  /// (script clients have predetermined streams; nothing to wait for).
  void set_reactive(std::uint32_t sid);
  void note_done(std::uint32_t sid);
  /// The IDLE verb: the session's burst is over and it has no events until
  /// it reacts to a completion. An idle session does not hold up the
  /// merge, and when EVERY open session is idle with empty queues
  /// blocking_peek() returns kNever — the engine advances epochs exactly
  /// as it would over an offline reactive source whose peek says "nothing
  /// pending". `dones_seen` (-1 = unconditional) is the number of DONE
  /// frames the client had processed when it declared idle: an IDLE older
  /// than the DONEs already routed is *stale* — it crossed a completion on
  /// the wire — and is ignored, keeping the session reacting until the
  /// up-to-date IDLE (or FIN) arrives. Idle is revoked by any push and by
  /// note_done.
  void set_idle(std::uint32_t sid, std::int64_t dones_seen);

  // Engine side (single consumer thread) ---------------------------------
  /// Blocks until the next merged event is knowable or the stream drained
  /// (kNever). Non-destructive: the head is not fenced, so a reacting
  /// client may still introduce an *earlier* event off a completion —
  /// exactly the offline reactive-source contract the engine re-peeks for.
  [[nodiscard]] SimTime blocking_peek();
  /// Re-selects and pops the merge minimum, advancing the release
  /// watermark; only valid after blocking_peek() != kNever.
  [[nodiscard]] workload::WorkloadEvent pop();

  // Restart / admin ------------------------------------------------------
  /// Seeds the reject state from a journal scan before clients reconnect:
  /// `watermark` = time of the last journaled event, `admitted` = every
  /// arrival id in the journal, `at_watermark_events` = the journal lines
  /// (G/D) whose time equals the watermark, for exact-tie duplicate
  /// suppression of re-driven scripts.
  void adopt_restart_state(SimTime watermark,
                           std::vector<std::int64_t> admitted,
                           std::vector<std::string> at_watermark_events);
  /// Administrative drain: all sessions close, pending events flush, the
  /// engine sees end-of-input once queues empty.
  void close_all();

  [[nodiscard]] IngressStats stats_snapshot() const;
  [[nodiscard]] SimTime watermark() const;

 private:
  struct Pending {
    workload::WorkloadEvent ev;
    std::int64_t push_ns;  // steady-clock stamp for wait_latency
  };
  struct Session {
    std::string name;
    /// Time-sorted (by MergeKey) — NOT push order: a reactive client's
    /// answer to a completion at t may arrive after later script events
    /// already queued, and must merge ahead of them (the offline engine's
    /// lazy pull would not have consumed those later events yet).
    std::deque<Pending> queue;
    bool finished = false;
    bool idle = false;
    /// Declared via the REACTIVE verb: completions routed here gate the
    /// merge until answered.
    bool reactive = false;
    /// A DONE was routed and the client has not yet answered (IDLE with a
    /// current dones count, or FIN). Vetoes merge_ready and idle_quiet.
    bool reacting = false;
    /// DONE frames routed to this session (the freshness bar for IDLE).
    std::int64_t dones_routed = 0;
    std::int64_t accepted = 0;
    std::int64_t rejected = 0;
  };

  [[nodiscard]] Accept validate(const Session& s,
                                const workload::WorkloadEvent& ev) const;
  /// True when every un-FINished session has a queued head and the
  /// expected-clients gate passed — the merge minimum is final.
  [[nodiscard]] bool merge_ready() const;
  [[nodiscard]] bool drained() const;
  /// True when every open session is idle with an empty queue (and the
  /// expected-clients gate passed): no input is pending, the engine may
  /// advance — the live mirror of a reactive source's kNever peek.
  [[nodiscard]] bool idle_quiet() const;
  /// The session holding the merge minimum, or nullptr if every queue is
  /// empty; caller holds mu_.
  [[nodiscard]] Session* min_head();

  IngressOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::uint32_t, Session> sessions_;
  std::uint32_t next_sid_ = 1;
  std::int64_t sessions_opened_ = 0;
  bool closed_ = false;

  /// Release watermark: time of the last event handed to the engine (the
  /// pop moment — also the journaling moment, so restart state rebuilt
  /// from the journal agrees with it exactly).
  SimTime watermark_ = 0;
  std::int64_t watermark_arrival_id_ = -1;
  /// Journal lines (exact text) of non-arrival events released at the
  /// watermark instant — the only events a re-driven script could legally
  /// duplicate without tripping the time checks.
  std::unordered_set<std::string> at_watermark_lines_;
  /// Every arrival id ever accepted (queued or released).
  std::unordered_set<std::int64_t> accepted_ids_;

  IngressStats stats_;
};

}  // namespace saath::service
