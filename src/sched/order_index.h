// Delta-maintained CoFlow ordering — the schedule-phase half of making
// SaathScheduler event-driven (Saath §4, Table 2's O(1)-amortized queue
// transitions), under every configuration it takes, the Aalo baseline
// included.
//
// Saath's admission order is a total order under the composite key
//   (expired, deadline | queue, contention-or-arrival, arrival, id)
// which the scheduler used to rebuild with a full std::sort every epoch,
// even when a single flow completion was the only change. OrderIndex keeps
// that order as a maintained structure: one ordered map under the exact
// comparator the sort used (expired CoFlows float to the front by deadline
// — the "expired-deadline head" — followed by the per-queue runs), updated
// in O(log F) per arrival, completion, queue move, contention change or
// deadline expiry. Materialization reuses the previously emitted prefix up
// to the first dirtied rank, so an epoch whose deltas all land late in the
// order re-walks only the tail — and the admission pass can replay its
// cached decisions for the untouched prefix.
//
// QueueCrossingHeap is the companion time-trigger structure: each CoFlow's
// next queue-threshold crossing instant is programmed into a
// lazy-invalidation min-heap, so queue reassignment pops due crossings
// instead of rescanning every flow of every CoFlow, and
// schedule_valid_until() reads the top in O(1). The heap only stores
// instants; the scheduler derives them from the closed-form FlowState
// trajectories (sched/saath.cc), so nothing here reads a flow.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "coflow/coflow.h"
#include "common/expect.h"
#include "common/ids.h"
#include "common/time.h"

namespace saath {

/// Composite admission-order key. Field semantics mirror the sort lambda
/// this index replaced: `deadline` is compared only between two expired
/// entries; `key` is contention under LCoF and arrival under FIFO.
struct OrderKey {
  bool expired = false;
  SimTime deadline = kNever;
  int queue = 0;
  std::int64_t key = 0;
  SimTime arrival = 0;
  CoflowId id{};

  friend bool operator<(const OrderKey& a, const OrderKey& b) {
    // D5: expired CoFlows ahead of everything, earliest deadline first; the
    // FIFO-derived bound must hold even for CoFlows demoted to low queues.
    if (a.expired != b.expired) return a.expired;
    if (a.expired && a.deadline != b.deadline) return a.deadline < b.deadline;
    if (a.queue != b.queue) return a.queue < b.queue;
    if (a.key != b.key) return a.key < b.key;
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.id < b.id;
  }
};

class OrderIndex {
 public:
  /// Adds a CoFlow under `k`. Must not already be present.
  void insert(CoflowState* c, const OrderKey& k);

  /// Removes a CoFlow (no-op when absent, so completion deltas can be
  /// replayed idempotently).
  void erase(CoflowId id);

  /// Re-keys `id` to `k` (O(log F); exact no-op when the key is unchanged).
  void update(CoflowId id, const OrderKey& k);

  /// Marks `id` dirty for materialization without changing its key: any
  /// rank at or after it loses prefix-replay eligibility. Used when a
  /// CoFlow's *state* changed (flow completed, data-availability flipped)
  /// in a way the order key does not capture but admission depends on.
  void touch(CoflowId id);

  [[nodiscard]] bool contains(CoflowId id) const {
    return by_id_.find(id) != by_id_.end();
  }
  [[nodiscard]] CoflowState* state_of(CoflowId id) const;
  [[nodiscard]] std::size_t size() const { return by_id_.size(); }

  /// Rebuilds the materialized total order, reusing the still-clean prefix
  /// of the previous materialization. Returns the first rank that may
  /// differ from the previous call (== size() when nothing was dirtied:
  /// the whole order, and any decisions cached against it, stand).
  std::size_t materialize();

  /// The order as of the last materialize().
  [[nodiscard]] std::span<CoflowState* const> ordered() const {
    return cached_;
  }
  [[nodiscard]] std::span<const OrderKey> ordered_keys() const {
    return cached_keys_;
  }

 private:
  using Map = std::map<OrderKey, CoflowState*>;
  void dirty_at(const OrderKey& k);

  Map order_;
  std::unordered_map<CoflowId, Map::iterator> by_id_;
  /// Materialization cache + the keys it was emitted under.
  std::vector<CoflowState*> cached_;
  std::vector<OrderKey> cached_keys_;
  bool dirty_any_ = false;
  OrderKey dirty_floor_{};
};

/// Min-heap of predicted queue-threshold crossing instants with lazy
/// invalidation: program() supersedes a CoFlow's previous entry by sequence
/// number; stale entries are pruned at the top. Crossing times may be
/// conservative (early) — a due pop whose CoFlow has not actually crossed
/// just re-programs — but must never be late.
class QueueCrossingHeap {
 public:
  /// (Re)programs `c`'s next crossing at absolute instant `at`. `traj` and
  /// `queue` snapshot the inputs the prediction was derived from (see
  /// current()). kNever records a "no crossing" tombstone — memoized like a
  /// real entry, never armed in the heap.
  void program(CoflowState* c, SimTime at, std::uint64_t traj = 0,
               int queue = 0);

  /// True when `id`'s entry (or tombstone) was derived from the same
  /// (CoflowState::trajectory_version, queue): every flow trajectory is
  /// provably unchanged, so the recorded prediction is still exact and the
  /// caller can skip its O(flows) re-derivation.
  [[nodiscard]] bool current(CoflowId id, std::uint64_t traj,
                             int queue) const;

  /// Drops `id`'s programmed crossing (CoFlow completed).
  void erase(CoflowId id);

  /// Earliest programmed instant, kNever when none. Prunes stale tops.
  [[nodiscard]] SimTime next() const;

  /// Pops every CoFlow whose crossing is due (<= now) into `fn(CoflowState*)`.
  template <typename Fn>
  SAATH_HOT_NOALLOC void pop_due(SimTime now, Fn&& fn) {
    for (;;) {
      flush();  // fn may re-program crossings mid-drain
      if (heap_.empty() || heap_.front().at > now) return;
      const Item top = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
      const auto it = live_.find(top.id);
      if (it == live_.end() || it->second.seq != top.seq) continue;  // stale
      CoflowState* c = it->second.state;
      live_.erase(it);
      fn(c);
    }
  }

  /// Entries armed with a real crossing instant (tombstones excluded).
  [[nodiscard]] std::size_t programmed() const;

 private:
  struct Item {
    SimTime at = kNever;
    CoflowId id{};
    std::uint64_t seq = 0;
    friend bool operator>(const Item& a, const Item& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.id.value > b.id.value;
    }
  };
  struct Live {
    CoflowState* state = nullptr;
    SimTime at = kNever;
    std::uint64_t seq = 0;
    /// Derivation snapshot for current().
    std::uint64_t traj = 0;
    int queue = 0;
  };

  /// Folds the pending program() batch into the heap: one make_heap
  /// rebuild when the batch is large relative to the heap, per-item sifts
  /// otherwise. Safe to defer — among comparator-equal items only the
  /// live seq survives the pop-side check, so batch order is unobservable.
  void flush() const;

  /// Sifted min-heap (front = earliest) + the unbatched program() tail.
  /// Mutable so next()/flush() can run from const context
  /// (schedule_valid_until is const); both keep capacity across epochs.
  mutable std::vector<Item> heap_;
  mutable std::vector<Item> pending_;
  std::unordered_map<CoflowId, Live> live_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace saath
