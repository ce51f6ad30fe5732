// SAATH — the paper's primary contribution (§3–§4).
//
// An online, non-clairvoyant CoFlow scheduler that exploits the spatial
// dimension with six cooperating mechanisms (§4, "key design features"):
//   (1) all-or-none     — a CoFlow is scheduled only when every sender and
//                         receiver port it needs has bandwidth, and then all
//                         of its flows run at one equal rate (D2/MADD-style),
//                         mitigating the out-of-sync problem;
//   (2) per-flow queue   — Eq. (1): the queue threshold is split equally
//       thresholds         among the CoFlow's flows and compared against the
//                         max per-flow bytes sent, accelerating demotion;
//   (3) LCoF            — within a queue, Least-Contention-First ordering by
//                         k_c, the number of CoFlows blocked on c's ports;
//   (4) work            — ports left idle by all-or-none are backfilled from
//       conservation      the ordered list of unscheduled CoFlows;
//   (5) dynamics        — after failures/stragglers, remaining work is
//                         estimated from the median finished-flow length and
//                         the CoFlow re-queued (approximate SRTF, §4.3);
//   (6) starvation      — FIFO-derived deadlines d·C_q·t (D5); expired
//       freedom           CoFlows move to the head of their queue.
//
// Every mechanism has a config switch so the Fig 10–12 ablations
// (A/N+FIFO, A/N+PF+FIFO, full Saath) are just configurations, and so is
// the baseline they start from. Aalo (Chowdhury & Stoica, SIGCOMM 2015),
// as the paper models it (§2.2), is the all-off configuration
// (aalo_config()): a global coordinator assigns CoFlows to K priority
// queues by *total bytes sent*; ports enumerate queues from highest to
// lowest priority and serve CoFlows within a queue in FIFO (arrival)
// order, allocating greedily with no all-or-none gate, no contention
// awareness and no starvation deadline. With §4.3 off nothing re-queues a
// CoFlow, so queues only demote: even after a restart loses progress, a
// CoFlow keeps the lowest queue it reached.
//
// The schedule phase is one incremental pass per round: the admission order
// lives in an OrderIndex, a flat array re-keyed in place per event and merged
// back into sorted order once a round, queue reassignment pops due threshold
// crossings from a TriggerHeap instead of rescanning every flow, and the
// all-or-none admission pass replays its cached decisions for the untouched
// sorted prefix. Every per-CoFlow structure here (the spatial index, the
// order index, both heaps and the round's marks) is a vector indexed by the
// slot the engine gave the CoFlow (CoflowState::slot()), so nothing looks a
// CoFlow up by id. A slot the completion hook released may carry the next
// arrival at once: the order index takes it back as a move of that slot.
// Every per-round container is flat and keeps its capacity, so once warm a
// round allocates nothing.
// Under per-flow thresholds a re-rated CoFlow's next crossing is folded in
// by the loops that set its rates (the equal-rate admission and the
// backfill) instead of a second walk over all of its flows. That is exact
// only because every flow enters schedule() at rate 0 — the engine's
// RateAssignment::begin_epoch and the blank-slate overload for direct
// callers zero the previous round's rates — so the flows a round rated are
// all the rated flows; each folded CoFlow checks this in O(1) against
// CoflowState::rated_flows(). A round's candidates for re-bucketing come
// from the SchedulerDelta's lists. A round with no stream (stream_id 0:
// direct callers, the testbed's PipelinedScheduler) or the first round of
// a new engine stream has no lists it can trust, so it takes every CoFlow
// as a candidate, which re-keys the whole order and replays nothing; a
// round with no stream also programs no crossing, since nothing reads one
// before the next stream's first round. The from-scratch model of Fig 7
// the pass is tested against lives in tests/reference/.
//
// Membership and occupancy come from the lifecycle hooks alone (the
// contract in sim/scheduler.h): every round checks in O(1) that the
// hook-maintained queue populations hold as many CoFlows as it is handed,
// and a round that takes every CoFlow also checks that each one was
// announced on its slot and, under LCoF, matches the index's occupancy
// version. A caller that skipped a hook aborts; nothing is repaired.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sched/order_index.h"
#include "sched/queue_structure.h"
#include "sim/scheduler.h"
#include "spatial/contention.h"

namespace saath {

struct SaathConfig {
  QueueConfig queues;
  /// (1) All-or-none admission; off = greedy partial allocation (Aalo-like).
  bool all_or_none = true;
  /// (2) Per-flow queue thresholds (Eq. 1); off = Aalo's total-bytes rule.
  bool per_flow_threshold = true;
  /// (3) LCoF within a queue; off = FIFO by arrival.
  bool lcof = true;
  /// (4) Backfill idle ports from the missed list.
  bool work_conservation = true;
  /// (6) Deadline factor d (paper default 2); <= 0 disables deadlines.
  double deadline_factor = 2.0;
  /// (5) Approximate-SRTF re-queueing for dynamics-flagged CoFlows; off =
  /// a CoFlow's queue never moves up.
  bool dynamics_srtf = true;
  /// §4.3 pipelining: skip CoFlows whose data is not yet available.
  bool respect_data_availability = true;
};

/// The Aalo baseline: every mechanism above off, deadlines included.
/// SaathScheduler names this configuration "aalo".
[[nodiscard]] inline SaathConfig aalo_config(QueueConfig queues = {}) {
  SaathConfig c;
  c.queues = queues;
  c.all_or_none = false;
  c.per_flow_threshold = false;
  c.lcof = false;
  c.work_conservation = false;
  c.deadline_factor = 0;
  c.dynamics_srtf = false;
  c.respect_data_availability = false;
  return c;
}

/// Wall-clock cost of each coordinator phase, accumulated across rounds —
/// the Table 2 "Total time (LCoF / All-or-none)" breakdown.
struct SaathPhaseStats {
  std::int64_t rounds = 0;
  std::int64_t order_ns = 0;     // queue assignment + intra-queue ordering
  std::int64_t admit_ns = 0;     // all-or-none admission + rate assignment
  std::int64_t conserve_ns = 0;  // work conservation backfill
  /// Crossing upkeep on a stream: the trajectory-memo check and heap
  /// programming per re-rated CoFlow, plus the walks the fold cannot
  /// replace (total bytes, greedy). The folded derivation itself runs
  /// inside admit_ns and conserve_ns.
  std::int64_t crossing_ns = 0;
  /// Rounds whose candidates came from the delta's lists (vs every CoFlow:
  /// no stream, or the first round of one).
  std::int64_t delta_rounds = 0;
  /// Admission ranks replayed from the cached prefix.
  std::int64_t replayed_ranks = 0;
  /// Churn diagnostic: re-bucketed candidates.
  std::int64_t candidates = 0;
  /// Conserve-phase split: rounds with a non-empty missed list, and
  /// missed CoFlows that received at least one allocation (the same count
  /// as those with a flow live at both ends at their turn; vs
  /// backfill_missed, every missed CoFlow a dense walk would visit).
  std::int64_t backfill_rounds = 0;
  std::int64_t backfill_candidates = 0;
  std::int64_t backfill_missed = 0;
  /// Slot entries the backfill's walk read (walk-list entries for a CoFlow
  /// on the dense walk), and the allocations it made. A dense walk would
  /// read every flow of every missed CoFlow, finished ones included.
  std::int64_t backfill_flows = 0;
  std::int64_t backfill_allocs = 0;
  /// CoFlows whose crossing a stream round re-programmed (or kept on its
  /// trajectory memo): the entries crossing_ns covers.
  std::int64_t recrossed = 0;
  /// Always 0: the conservation-replay cache it counted is gone. Kept only
  /// because coordbench still reports it.
  std::int64_t conserve_replays = 0;
  [[nodiscard]] std::int64_t total_ns() const {
    return order_ns + admit_ns + conserve_ns + crossing_ns;
  }
};

class SaathScheduler final : public Scheduler {
 public:
  explicit SaathScheduler(SaathConfig config = {});

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] const SaathConfig& config() const { return config_; }
  [[nodiscard]] const SaathPhaseStats& phase_stats() const { return stats_; }

  using Scheduler::schedule;
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override;
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates,
                const SchedulerDelta& delta) override;

  /// Port-occupancy (and hence contention) only changes on these events;
  /// each applies an O(delta) update to the spatial index and the queue
  /// populations instead of invalidating a whole-schedule cache. Under
  /// every config each aborts when its slot's mark says it cannot act: an
  /// arrival with no slot, of a CoFlow already announced, or on a slot
  /// another announced CoFlow holds, or a completion of a CoFlow never
  /// announced. An arrival whose queue index lies outside the queues (only
  /// a restored CoFlow can carry one) throws std::invalid_argument and
  /// changes nothing.
  void on_coflow_arrival(CoflowState& coflow, SimTime now) override;
  void on_flow_complete(CoflowState& coflow, FlowState& flow,
                        SimTime now) override;
  void on_coflow_complete(CoflowState& coflow, SimTime now) override;
  /// Quarantine detachment reuses the completion erase path (it never
  /// requires finished()); re-admission arrives as a fresh
  /// on_coflow_arrival on the slot the engine kept.
  void on_coflow_quarantined(CoflowState& coflow, SimTime now) override;

  /// Earliest time-only trigger that can reorder the schedule with no delta:
  /// a queue-threshold crossing at current rates or a starvation deadline
  /// expiring. Lets the engine skip quiescent epochs (§4 Table 2: the
  /// coordinator only works when the spatial state moved). O(1) off the
  /// crossing heap + deadline heap after a round on an engine stream; `now`
  /// (recompute every epoch) after a round with no stream.
  [[nodiscard]] SimTime schedule_valid_until(
      SimTime now, std::span<CoflowState* const> active) const override;

  /// The incremental spatial-occupancy index feeding LCoF (tests compare it
  /// against the batch k_c of tests/reference/), keyed by
  /// CoflowState::slot(). Meaningful only with config().lcof.
  [[nodiscard]] const spatial::SpatialIndex& spatial_index() const {
    return spatial_;
  }
  /// True when the arrival hook announced `c` on its slot and no
  /// completion or quarantine hook released it since.
  [[nodiscard]] bool announced(const CoflowState& c) const {
    return c.slot() < marks_.size() && marks_[c.slot()].held &&
           marks_[c.slot()].id == c.id();
  }
  /// The delta-maintained admission order (tests compare its materialized
  /// sequence against the reference's sort), as of the last round.
  [[nodiscard]] const OrderIndex& order_index() const { return order_; }

  /// Exposed for tests: the §4.3 remaining-work estimate m_c (median
  /// finished length minus bytes sent as of `now`, maxed over unfinished
  /// flows).
  [[nodiscard]] static double dynamics_remaining_estimate(
      const CoflowState& coflow, SimTime now);

 private:
  /// All-or-none admission outcome for one rank of the materialized order;
  /// replayed verbatim while the sorted prefix is untouched.
  struct AdmitDecision {
    enum class Kind : std::uint8_t {
      kSkippedUnavailable,
      kAdmitted,
      kMissed,
      kGreedy,  // !all_or_none ablation — never replayed
    };
    Kind kind = Kind::kMissed;
    Rate rate = 0;
  };

  /// The per-flow crossing (Eq. 1) of a CoFlow whose trajectory this round
  /// may have changed, folded in by the loop that set its rates: the
  /// seconds until its first rated flow's bytes sent reach
  /// hi_threshold(q)/width, and how many flows it rated. `walk` marks a
  /// derivation the fold cannot see — total bytes, where the summation
  /// order of the rates decides the bits, and greedy admission — which
  /// program_crossing derives by walking the flows.
  struct CrossingFold {
    double seconds = std::numeric_limits<double>::infinity();
    double bound = 0;  // set with the first rated flow
    int rated = 0;
    bool walk = false;
  };
  [[nodiscard]] CrossingFold fresh_fold() const {
    CrossingFold fold;
    fold.walk = !config_.per_flow_threshold;
    return fold;
  }

  /// The queue Eq. 1 (or total bytes, or the §4.3 estimate) assigns `c`
  /// this round.
  [[nodiscard]] int target_queue(const CoflowState& c, SimTime now) const;
  /// D5 stamp for every CoFlow that entered a queue this round, using the
  /// post-move populations; maintains the deadline heap.
  void stamp_deadlines(SimTime now, std::span<CoflowState* const> entered,
                       Rate port_bandwidth);
  [[nodiscard]] bool all_ports_available(const CoflowState& c,
                                         const Fabric& fabric) const;
  /// D2: one equal rate for every unfinished flow of c (min max-min share
  /// over its ports); consumes fabric budget and folds c's crossing into
  /// `fold` unless it walks. Returns the rate.
  Rate allocate_equal_rate(CoflowState& c, Fabric& fabric,
                           RateAssignment& rates, SimTime now,
                           CrossingFold& fold) const;
  /// Applies `rate` to every unfinished flow without recomputing the
  /// max-min share, folding each flow's crossing into `fold` when given. A
  /// replayed admission passes none: its crossing entry still stands.
  void replay_equal_rate(CoflowState& c, Rate rate, Fabric& fabric,
                         RateAssignment& rates, SimTime now,
                         CrossingFold* fold) const;
  /// Folds flow i of c, just rated, into `fold`.
  void fold_crossing(CrossingFold& fold, const CoflowState& c, std::uint32_t i,
                     SimTime now) const;
  /// Admission + work conservation over `ordered`, replaying cached
  /// decisions for ranks below `first_dirty_rank` when the capacities did
  /// not move; records this round's decisions and lists the rank of every
  /// CoFlow needing a crossing re-program in recross_ once, with its
  /// crossing folded in: admitted, skipped and greedy ranks here, missed
  /// ones by conserve() (or here, with work conservation off). The
  /// conservation pass takes the missed CoFlows in admission order,
  /// stopping when either residual set drains.
  void admit_and_conserve(SimTime now, Fabric& fabric, RateAssignment& rates,
                          std::span<CoflowState* const> ordered,
                          std::size_t first_dirty_rank);
  /// Work conservation (Fig 7 lines 14, 18–23): the `missed` ranks of
  /// `ordered`, in order, soak up whatever budget admission left, each flow
  /// taking min(send residual, receive residual). The dense walk visits a
  /// CoFlow's unfinished flows in ascending index. Here each CoFlow takes one
  /// pass along the port slots of one side: live slots in slot order, each
  /// slot's unfinished flows ascending, skipping a flow whose other port has
  /// drained and leaving the slot once its own port drains. The side must be
  /// ordered (CoflowState::sender_walk_ordered); with both ordered it is the
  /// one with fewer slots, ties to senders, and a CoFlow with neither takes the
  /// dense walk over walk_flows().
  ///
  /// Why the slot walk is the dense walk, bit for bit: a flow's grant
  /// reads only its two ports' residuals, and only grants to earlier flows
  /// on those ports lower them. Walking the sender slots, a sender port's
  /// flows come contiguously and ascending; an ordered sender side means
  /// each receiver port's flows come ascending too. So every port sees the
  /// same grants subtracted in the same order, and by induction over the
  /// visit order every flow gets the same double, and the eps skips, the
  /// drained ports and the live sets all agree. The mirror holds for
  /// receivers. Fabric's per-port subtractions and RateAssignment's
  /// per-port accumulators see the same per-port sequence; only the order
  /// of the touched list changes across ports, and the completion heap
  /// pops valid entries in (time, flow id) order whatever its layout. Each
  /// flow that gets budget is folded into the CoFlow's recross_ fold (a
  /// min, so visit order does not matter). CoFlows whose turn comes after
  /// the live sets drain are listed unrated.
  void conserve(SimTime now, Fabric& fabric, RateAssignment& rates,
                std::span<CoflowState* const> ordered,
                std::span<const std::size_t> missed);

  /// The composite admission-order key the sort/index both use.
  [[nodiscard]] OrderKey make_key(const CoflowState& c, SimTime now,
                                  std::int64_t contention_key) const;
  /// The LCoF/FIFO key component of c under the current config.
  [[nodiscard]] std::int64_t order_key_component(const CoflowState& c) const;

  /// Programs the next queue-threshold crossing of c at current rates into
  /// the heap (kNever cancels), unless its trajectory memo is still current:
  /// the folded seconds, or a walk where the fold says so. Checks that the
  /// fold saw every rated flow. Mirrors the arithmetic of the reference
  /// scheduler's valid-until scan, minus a 1µs guard so float rounding can
  /// only make the prediction early (a spurious recompute), never late
  /// (divergence).
  void program_crossing(CoflowState& c, const CrossingFold& fold,
                        SimTime now);
  /// §4.3 estimate in play: the queue can change any epoch.
  [[nodiscard]] bool is_volatile(const CoflowState& c) const;
  /// Lists `c` in candidates_ unless this round already did.
  void add_candidate(CoflowState* c);

  [[nodiscard]] double hi_threshold(int q) const {
    return hi_thresholds_[static_cast<std::size_t>(q)];
  }

  /// True when the spatial index is the live LCoF source.
  [[nodiscard]] bool tracks_index() const { return config_.lcof; }

  SaathConfig config_;
  QueueStructure queues_;
  /// queues_.hi_threshold(q) for every queue, so the crossing fold and
  /// walks read a threshold instead of computing a pow() per CoFlow.
  std::vector<double> hi_thresholds_;
  SaathPhaseStats stats_;

  // --- one record per slot (CoflowState::slot()) ---------------------------
  /// The slot's marks, grown to the highest slot announced.
  struct SlotMarks {
    /// The CoFlow announced on the slot, while `held`.
    CoflowId id;
    bool held = false;
    /// stats_.rounds of the last round that listed the slot in
    /// candidates_ (rounds count from 1, so 0 is never).
    std::int64_t candidate_round = 0;
    /// On the §4.3 estimate path (dynamics-flagged with finished flows):
    /// re-bucketed every round, and the skip is disabled while any exist.
    bool is_volatile = false;
  };
  std::vector<SlotMarks> marks_;
  /// Slots marked is_volatile.
  int volatile_count_ = 0;

  /// Event-maintained spatial state: per-port occupancy + per-CoFlow k_c.
  spatial::SpatialIndex spatial_;
  /// Per-queue population C_q for the D5 deadline, maintained by the same
  /// deltas (arrival, queue move, completion) instead of recounted.
  QueuePopulation queue_population_;

  // --- delta-driven schedule-phase state; a round with no stream, or the
  //     first of a new one, re-keys every CoFlow into it ------------------
  OrderIndex order_;
  /// Each CoFlow's next queue-threshold crossing at current rates, with
  /// its trajectory memo.
  TriggerHeap crossings_;
  /// Unexpired D5 deadlines; the head feeds schedule_valid_until.
  TriggerHeap deadlines_;
  /// Admission decisions aligned with the last materialized order.
  std::vector<AdmitDecision> admit_cache_;
  /// Fabric::capacity_version() the cached admissions were computed under.
  std::uint64_t admit_capacity_version_ = ~std::uint64_t{0};
  /// Delta stream of the last round (0 = none).
  std::uint64_t stream_ = 0;
  /// Scratch (kept across rounds to reuse capacity).
  std::vector<CoflowState*> candidates_;
  /// Slots of dirty CoFlows that provably kept their key (fence only).
  std::vector<Slot> touch_only_;
  std::vector<CoflowState*> entered_;
  /// Ranks of this round's missed CoFlows.
  std::vector<std::size_t> missed_ranks_;
  /// Ranks whose trajectory this round changed → crossing re-program.
  std::vector<std::pair<std::size_t, CrossingFold>> recross_;
};

}  // namespace saath
