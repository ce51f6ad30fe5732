// CoFlow abstraction (§2.1).
//
// A CoFlow is a set of semantically synchronized flows between network
// ports; its completion time (CCT) is the span from arrival to the finish of
// its last flow. CoflowSpec/FlowSpec are immutable trace-level descriptions;
// FlowState/CoflowState carry the mutable simulation state the engine and
// schedulers operate on.
//
// Flow progress is *lazy*: a FlowState stores (bytes at last rate change,
// rate, anchor time) and computes sent()/remaining() on demand, so advancing
// simulated time touches no per-flow state at all. A rate change folds the
// progress accrued at the old rate into the base and re-anchors; it also
// precomputes the flow's finish instant on the µs grid, which is what both
// the event-driven completion heap and the scan-based oracle consume.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coflow/flow_pool.h"
#include "common/ids.h"
#include "common/time.h"
#include "common/units.h"

namespace saath {

/// Immutable description of one flow: src sender port -> dst receiver port.
struct FlowSpec {
  PortIndex src = kInvalidPort;
  PortIndex dst = kInvalidPort;
  Bytes size = 0;
};

/// Immutable description of one CoFlow as it appears in a trace.
struct CoflowSpec {
  CoflowId id;
  SimTime arrival = 0;
  std::vector<FlowSpec> flows;
  /// Optional job linkage for DAG / JCT experiments.
  JobId job;
  int stage = 0;

  [[nodiscard]] int width() const { return static_cast<int>(flows.size()); }
  [[nodiscard]] Bytes total_bytes() const;
  [[nodiscard]] Bytes max_flow_bytes() const;
};

/// The one well-formedness check for a CoflowSpec on a `num_ports` fabric
/// (flows present, sizes >= 0, ports inside the fabric): the defect, or
/// nullptr. Each caller turns a defect into its own reject.
[[nodiscard]] const char* spec_defect(const CoflowSpec& spec, int num_ports);

class CoflowState;

/// Mutable per-flow simulation state with lazy (closed-form) progress.
///
/// Since the SoA pass this is an index-backed *handle*: the hot trajectory
/// scalars live in the owning CoflowState's FlowPool (parallel arrays,
/// slot = the flow's position in flows()), and every accessor forwards to
/// one array element with unchanged arithmetic — trajectory values are
/// bit-identical to the old interleaved layout. Only cold bookkeeping
/// (ids, port slots, stamps, the heap position, the resume stash) stays
/// inline.
class FlowState {
 public:
  /// Standalone (unit-test / manual-drive) flow: owns a private 1-slot
  /// pool. `origin` anchors the flow's timeline (its CoFlow's arrival); a
  /// zero-byte flow is predicted to finish right there.
  FlowState(FlowId id, const FlowSpec& spec, SimTime origin = 0);
  /// Pool-backed handle over slot `index` of `pool` (CoflowState's
  /// constructor); initializes the slot's size/anchor/predicted-finish.
  FlowState(FlowId id, const FlowSpec& spec, SimTime origin, FlowPool* pool,
            std::uint32_t index);
  FlowState(FlowState&&) noexcept = default;
  FlowState& operator=(FlowState&&) noexcept = default;

  [[nodiscard]] FlowId id() const { return id_; }
  /// Endpoints, read from the pool's src/dst lanes.
  [[nodiscard]] PortIndex src() const { return pool_->src[index_]; }
  [[nodiscard]] PortIndex dst() const { return pool_->dst[index_]; }
  /// Slot in the owning FlowPool == position in CoflowState::flows().
  [[nodiscard]] std::uint32_t pool_index() const { return index_; }
  /// Index of src() in the owner's sender_loads() and of dst() in its
  /// receiver_loads(), fixed at construction (a CoFlow's port set never
  /// changes); kNoPortSlot for a standalone flow.
  static constexpr std::uint32_t kNoPortSlot = ~std::uint32_t{0};
  [[nodiscard]] std::uint32_t sender_slot() const { return sender_slot_; }
  [[nodiscard]] std::uint32_t receiver_slot() const { return receiver_slot_; }
  [[nodiscard]] double size() const { return pool_->size_bytes[index_]; }
  [[nodiscard]] bool finished() const { return pool_->finished[index_] != 0; }
  [[nodiscard]] SimTime finish_time() const { return finish_time_; }

  /// Bytes sent as of `now`, computed from the last rate change; queries
  /// before the anchor return the base (progress never runs backwards).
  /// Inline: this is the hottest read in every scheduler's queue pass.
  [[nodiscard]] double sent(SimTime now) const {
    return pool_->sent(index_, now);
  }
  [[nodiscard]] double remaining(SimTime now) const { return size() - sent(now); }

  [[nodiscard]] Rate rate() const { return pool_->rate[index_]; }

  /// Checkpoint capture: the raw trajectory fields (bytes folded at the
  /// last rate change and its instant). Together with rate() and
  /// predicted_finish() these are the exact bits a resumed run restores
  /// via CoflowState::restore_flow_progress.
  [[nodiscard]] double sent_base() const { return pool_->sent_base[index_]; }
  [[nodiscard]] SimTime anchor() const { return pool_->anchor[index_]; }

  /// Changes the rate at `now`: folds progress accrued at the old rate into
  /// the base, re-anchors, bumps the rate version (invalidating any queued
  /// completion events), and recomputes predicted_finish(). During an engine
  /// run all rate changes must go through the engine's RateAssignment so the
  /// completion heap sees them; calling this directly is for unit tests and
  /// manual CoflowState drives only.
  void set_rate(Rate r, SimTime now);

  /// Absolute µs instant this flow finishes at its current rate (ceil'd to
  /// the µs grid, at least 1µs after the rate change); kNever when the rate
  /// is zero and bytes remain.
  [[nodiscard]] SimTime predicted_finish() const {
    return pool_->predicted_finish[index_];
  }

  /// Bumped on every rate change / completion / restart. Completion events
  /// snapshot it; a mismatch at pop time marks the event stale.
  [[nodiscard]] std::uint64_t rate_version() const {
    return pool_->rate_version[index_];
  }

  /// Marks the flow complete at `now` (engine computes the exact instant).
  void complete(SimTime now);
  /// Task restart after a node failure: all progress is lost (§4.3).
  /// Returns the bytes that were discarded.
  double restart(SimTime now);

  /// RateAssignment bookkeeping: stamp of the epoch that last recorded this
  /// flow as touched. Owned by RateAssignment; meaningless elsewhere.
  [[nodiscard]] std::uint64_t touch_stamp() const { return touch_stamp_; }
  void set_touch_stamp(std::uint64_t s) { touch_stamp_ = s; }

  /// CompletionHeap bookkeeping: the index of this flow's one heap entry,
  /// kNoHeapPos when it holds none. Owned by CompletionHeap; meaningless
  /// elsewhere.
  static constexpr std::uint32_t kNoHeapPos = ~std::uint32_t{0};
  [[nodiscard]] std::uint32_t heap_pos() const { return heap_pos_; }
  void set_heap_pos(std::uint32_t pos) { heap_pos_ = pos; }

 private:
  friend class CoflowState;
  /// Reports a trajectory mutation (rate change, completion, restart) to
  /// the owning CoflowState's aggregate cache; no-op for standalone flows.
  void note_mutation(Rate rate_before, Rate rate_after);
  /// Keeps the owner's trajectory_version() in sync with a rate_version_
  /// transition (unsigned-wrap arithmetic handles the restore rollback).
  void sync_version(std::uint64_t old_version, std::uint64_t new_version);

  // The handle proper: pool slot first (every hot accessor reads these two
  // then exactly one pool array element); cold rate-change-only
  // bookkeeping behind it. The trajectory scalars and the endpoints live
  // in the pool's parallel arrays; the port slots stay here, which keeps
  // the handle at 112 bytes and each one-flow pool at nine cache lines.
  FlowPool* pool_ = nullptr;
  std::uint32_t index_ = 0;
  std::uint32_t heap_pos_ = kNoHeapPos;  // fills the padding after index_
  FlowId id_;
  std::uint32_t sender_slot_ = kNoPortSlot;    // set by CoflowState's
  std::uint32_t receiver_slot_ = kNoPortSlot;  // constructor, with owner_
  CoflowState* owner_ = nullptr;
  SimTime finish_time_ = kNever;
  std::uint64_t touch_stamp_ = 0;
  /// Trajectory stashed by an epoch-start zeroing, restored bit-exactly if
  /// the scheduler re-assigns the same rate at the same instant (the
  /// quiescent-recompute case). resume_zeroed_at_ == kNever means invalid.
  SimTime resume_zeroed_at_ = kNever;
  SimTime resume_anchor_ = 0;
  double resume_base_ = 0;
  Rate resume_rate_ = 0;
  SimTime resume_pf_ = kNever;
  std::uint64_t resume_version_ = 0;
  /// Standalone (test-constructed) flows own their private 1-slot pool;
  /// pool-backed flows leave this empty and point at their CoFlow's pool.
  std::unique_ptr<FlowPool> own_pool_;
};

/// How many unfinished flows a CoFlow has on a given port.
struct PortLoad {
  PortIndex port = kInvalidPort;
  int unfinished_flows = 0;
};

/// Port memberships released by a flow completion — the delta an
/// occupancy consumer (spatial::SpatialIndex) needs, without rescanning
/// the full load lists.
struct OccupancyDelta {
  bool sender_freed = false;
  bool receiver_freed = false;
};

/// Mutable per-CoFlow simulation state. Owns its FlowStates.
class CoflowState {
 public:
  /// Takes the spec by value: engine admissions move it straight off the
  /// workload stream (no deep copy of the flow vector); lvalue callers copy
  /// once, as before. One linear pass over the flows numbers each side's
  /// ports in first-appearance order through a port -> slot hash table
  /// (per-thread scratch that keeps its capacity, so a port's value sizes
  /// nothing), records each flow's two slots and decides both walk flags;
  /// the load lists, CSR lists and walk list are then filled at exact size.
  /// Nothing sorts or searches.
  CoflowState(CoflowSpec spec, FlowId first_flow_id);
  /// Flows hold a back-pointer to their owner (for the aggregate caches);
  /// the state is pinned in place.
  CoflowState(const CoflowState&) = delete;
  CoflowState& operator=(const CoflowState&) = delete;

  [[nodiscard]] const CoflowSpec& spec() const { return spec_; }
  [[nodiscard]] CoflowId id() const { return spec_.id; }
  [[nodiscard]] SimTime arrival() const { return spec_.arrival; }
  [[nodiscard]] int width() const { return spec_.width(); }

  [[nodiscard]] std::span<FlowState> flows() { return flows_; }
  [[nodiscard]] std::span<const FlowState> flows() const { return flows_; }

  /// The SoA trajectory arrays behind flows() (slot i == flows()[i]), for
  /// dense read-only walks (aggregate sums, maxmin demand gathers, the
  /// backfill's residual checks). Mutation still goes through FlowState so
  /// version and cache bookkeeping stay coherent.
  [[nodiscard]] const FlowPool& pool() const { return pool_; }

  [[nodiscard]] bool finished() const { return unfinished_ == 0; }
  [[nodiscard]] int unfinished_flows() const { return unfinished_; }
  [[nodiscard]] SimTime finish_time() const { return finish_time_; }
  [[nodiscard]] SimTime completion_time() const;

  /// Total bytes sent across all flows as of `now` (Aalo's queueing metric).
  /// Cached: recomputed only when some flow's trajectory changed since the
  /// last query, or time moved while flows were actively sending — on
  /// quiescent epochs (the common case under all-or-none) this is O(1).
  [[nodiscard]] double total_sent(SimTime now) const;
  /// Max bytes sent by any single flow (Saath's per-flow queue metric,
  /// m_c). Cached like total_sent().
  [[nodiscard]] double max_flow_sent(SimTime now) const;
  [[nodiscard]] double total_remaining(SimTime now) const;

  /// Distinct sender/receiver ports still carrying unfinished flows, one
  /// entry per port slot in first-appearance order (allocation iteration
  /// order is observable). Entries with unfinished_flows == 0 remain in the
  /// list and must be skipped by callers. A flow finds its two entries
  /// through FlowState::sender_slot()/receiver_slot(); there is no port
  /// index.
  [[nodiscard]] std::span<const PortLoad> sender_loads() const { return senders_; }
  [[nodiscard]] std::span<const PortLoad> receiver_loads() const { return receivers_; }

  /// Unfinished flows on one specific port (0 when the CoFlow never touched
  /// it): a scan of the load list, for tests; hot paths read a flow's slots.
  [[nodiscard]] int unfinished_on_sender(PortIndex port) const;
  [[nodiscard]] int unfinished_on_receiver(PortIndex port) const;

  /// Indices into flows() of the UNFINISHED flows sourced at
  /// sender_loads()[slot].port (resp. sinked at receiver_loads()[slot].port),
  /// ascending; the length is that slot's unfinished_flows. The flow->port
  /// mapping is immutable, so each slot's storage is laid out once at
  /// construction, and on_flow_complete removes the completed flow from its
  /// two lists, order kept. This is the per-port flow membership the
  /// work-conservation backfill walks along residually-live ports —
  /// without it, reaching "the flows on port p" means scanning every flow.
  [[nodiscard]] std::span<const std::uint32_t> sender_slot_flows(
      std::size_t slot) const {
    return std::span<const std::uint32_t>(sender_slot_flows_)
        .subspan(sender_slot_begin_[slot],
                 static_cast<std::size_t>(senders_[slot].unfinished_flows));
  }
  [[nodiscard]] std::span<const std::uint32_t> receiver_slot_flows(
      std::size_t slot) const {
    return std::span<const std::uint32_t>(receiver_slot_flows_)
        .subspan(receiver_slot_begin_[slot],
                 static_cast<std::size_t>(receivers_[slot].unfinished_flows));
  }

  /// Ascending indices into flows() covering every unfinished flow — the
  /// visit order of the per-round dense walks. Finished flows are dropped
  /// lazily, once they make up half the list, so it holds fewer than twice
  /// unfinished_flows() entries and callers still skip finished ones.
  [[nodiscard]] std::span<const std::uint32_t> walk_flows() const {
    return walk_flows_;
  }

  /// True when visiting the flows sender slot by sender slot (each slot's
  /// list ascending) meets every receiver port's flows in ascending flow
  /// index: along every receiver slot's list the sender slot never
  /// decreases. receiver_walk_ordered() is the mirror. Then that slot walk
  /// hands each port's flows to the backfill in the dense walk's order.
  /// Fixed at construction; completions only shrink the lists, so it holds
  /// for the CoFlow's whole life. A reducer-by-reducer, mapper-by-mapper
  /// mesh over distinct ports has both; one that lists a port twice among
  /// its reducers has neither.
  [[nodiscard]] bool sender_walk_ordered() const {
    return sender_walk_ordered_;
  }
  [[nodiscard]] bool receiver_walk_ordered() const {
    return receiver_walk_ordered_;
  }

  /// Bumped on every port-occupancy change (currently: each flow
  /// completion). Incremental consumers compare it against the version they
  /// indexed to detect state mutated behind their back.
  [[nodiscard]] std::uint64_t occupancy_version() const {
    return occupancy_version_;
  }

  /// Sum of the flows' rate versions. Equality between two observations
  /// proves every flow's trajectory is unchanged between them: per-flow
  /// versions never fall below an epoch-end observation (the bit-exact
  /// zero-then-restore of a quiescent re-rate restores the version too),
  /// so the sum cannot alias offsetting changes. This is what lets
  /// crossing-prediction consumers skip their O(flows) scan when a
  /// scheduling round re-derived the exact same rates.
  [[nodiscard]] std::uint64_t trajectory_version() const {
    return trajectory_version_;
  }

  /// Bottleneck time at full port bandwidth over remaining bytes — the SEBF
  /// metric Γ (max over ports of remaining port bytes / bandwidth).
  [[nodiscard]] double bottleneck_seconds(Rate port_bandwidth, SimTime now) const;

  /// Engine hooks --------------------------------------------------------
  /// Completes `flow` at `now`, updating port loads, the unfinished-only
  /// flow views, and finish bookkeeping — the only place those views change.
  /// Reports which of the flow's two port memberships dropped to zero.
  /// Reads the flow's two port slots directly and allocates nothing.
  OccupancyDelta on_flow_complete(FlowState& flow, SimTime now);
  /// Node failure on `port`: restarts every unfinished flow touching it.
  /// Returns the number of flows restarted.
  int restart_flows_on_port(PortIndex port, SimTime now);

  /// Number of flows currently assigned a nonzero rate — O(1) off the
  /// aggregate-cache counter. Zero across a whole scheduling round while
  /// data_available is what the engine's stall detector keys on.
  [[nodiscard]] int rated_flows() const { return rated_flows_; }

  /// Checkpoint restore (engine use only, on a freshly constructed state
  /// before any scheduling): overwrites flow `i`'s trajectory with
  /// previously captured bits — no fold, no re-rounding of the predicted
  /// finish, so a resumed run replays the exact µs instants the
  /// interrupted run would have produced.
  void restore_flow_progress(std::size_t i, double sent_base, Rate rate,
                             SimTime anchor, SimTime predicted_finish);
  /// Checkpoint restore of an already-finished flow: routes through the
  /// normal completion bookkeeping (port loads, unfinished-only flow
  /// views, finished count, occupancy version) at the recorded finish
  /// instant.
  void restore_flow_finished(std::size_t i, SimTime finish_time);

  /// Scheduler-owned annotations ------------------------------------------
  int queue_index = 0;
  SimTime deadline = kNever;
  /// Set when a failure/straggler/restart touched this CoFlow (§4.3).
  bool dynamics_flagged = false;
  /// Graceful-degradation bookkeeping (engine-owned): consecutive
  /// scheduling rounds this CoFlow sat schedulable (data available) yet
  /// fully unrated, and completed quarantine re-admissions. See
  /// SimConfig::max_stall_epochs.
  int stall_rounds = 0;
  int requeue_attempts = 0;
  /// Data-availability gate (§4.3 pipelining): flows before this count are
  /// ready; engine-level injectors may hold data back.
  bool data_available = true;

  /// Flows that already finished; the §4.3 approximate-SRTF estimator
  /// needs at least one.
  [[nodiscard]] int finished_flows() const { return width() - unfinished_; }

  /// Median length (bytes) of the finished flows (f_e, §4.3), read off
  /// their FlowPool sizes and cached on finished_flows(), so the per-round
  /// SRTF estimator re-selects only after a flow finished. Requires a
  /// finished flow.
  [[nodiscard]] double finished_length_median() const;

 private:
  friend class FlowState;

  /// One memoized scalar aggregate over the flows (total_sent,
  /// max_flow_sent): valid while no flow trajectory mutated and, when some
  /// flow is actively sending, the query instant is unchanged.
  struct AggregateCache {
    double value = 0;
    SimTime at = kNever;
    std::uint64_t version = ~std::uint64_t{0};
  };
  template <typename Compute>
  double cached_aggregate(AggregateCache& cache, SimTime now,
                          Compute&& compute) const {
    if (cache.version == progress_version_ &&
        (rated_flows_ == 0 || cache.at == now)) {
      return cache.value;
    }
    cache.value = compute();
    cache.at = now;
    cache.version = progress_version_;
    return cache.value;
  }

  CoflowSpec spec_;
  /// Declared before flows_: the handles point into it. Allocated once in
  /// the constructor, never reallocated (handle stability).
  FlowPool pool_;
  std::vector<FlowState> flows_;
  std::vector<PortLoad> senders_;
  std::vector<PortLoad> receivers_;
  /// CSR layout of flow indices grouped by sender / receiver slot (see
  /// sender_slot_flows): slot s owns begin_[s]..begin_[s+1], of which the
  /// first unfinished_flows entries are its live list.
  std::vector<std::uint32_t> sender_slot_flows_;
  std::vector<std::uint32_t> sender_slot_begin_;
  std::vector<std::uint32_t> receiver_slot_flows_;
  std::vector<std::uint32_t> receiver_slot_begin_;
  bool sender_walk_ordered_ = false;
  bool receiver_walk_ordered_ = false;
  /// See walk_flows(); walk_finished_ counts the finished entries it holds.
  std::vector<std::uint32_t> walk_flows_;
  std::size_t walk_finished_ = 0;
  /// finished_flows() the cached median was computed at; 0 = none.
  mutable int median_for_count_ = 0;
  mutable double median_cache_ = 0;
  int unfinished_ = 0;
  std::uint64_t occupancy_version_ = 0;
  /// Σ flows' rate_version(), maintained by FlowState::sync_version.
  std::uint64_t trajectory_version_ = 0;
  SimTime finish_time_ = kNever;
  /// Bumped by FlowState::note_mutation on every trajectory change; keys
  /// the aggregate caches. rated_flows_ counts flows with rate > 0 — when
  /// zero, sent-byte aggregates are time-invariant.
  std::uint64_t progress_version_ = 0;
  int rated_flows_ = 0;
  mutable AggregateCache total_sent_cache_;
  mutable AggregateCache max_sent_cache_;
};

}  // namespace saath
