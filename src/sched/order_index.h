// Delta-maintained CoFlow ordering — the schedule-phase half of making
// SaathScheduler event-driven (Saath §4, Table 2's O(1)-amortized queue
// transitions), under every configuration it takes, the Aalo baseline
// included.
//
// Saath's admission order is a total order under the composite key
//   (expired, deadline | queue, contention-or-arrival, arrival, id)
// which the scheduler used to rebuild with a full std::sort every epoch,
// even when a single flow completion was the only change. OrderIndex keeps
// that order as a maintained structure under the exact comparator the sort
// used (expired CoFlows float to the front by deadline — the
// "expired-deadline head" — followed by the per-queue runs). Entries live
// in a flat array found through one open-addressed table probe; an
// arrival, completion, queue move, contention change or deadline expiry
// writes the key in place and marks the entry moved. Materialization
// keeps the previously emitted prefix up to the first dirtied rank, keeps
// the old tail's entries that neither moved nor left (still sorted), sorts
// only the moved ones and merges the two, so a round costs O(tail + m log m)
// for m moved entries. An epoch whose deltas all land late in the order
// re-walks only the tail — and the admission pass can replay its cached
// decisions for the untouched prefix.
//
// TriggerHeap holds the companion time triggers, each CoFlow's next
// queue-threshold crossing (one instance) and its unexpired D5 deadline
// (another), in an indexed min-heap of (instant, id): queue reassignment
// pops due crossings instead of rescanning every flow of every CoFlow, and
// schedule_valid_until() reads both tops in O(1). The heap stores instants
// and ids only; the scheduler derives the instants from the closed-form
// FlowState trajectories (sched/saath.cc) and resolves a popped id through
// the OrderIndex, so nothing here reads a flow or keeps a CoFlow pointer.
//
// Every structure here is flat — vectors and FlatTables that keep their
// capacity — so once warm a round allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "coflow/coflow.h"
#include "common/expect.h"
#include "common/flat_table.h"
#include "common/indexed_heap.h"
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
  /// An entry's handle: stable from insert() until the materialize() after
  /// its erase(), so one table probe serves every call on the entry.
  using Slot = std::uint32_t;
  static constexpr Slot npos = ~Slot{0};

  /// Adds a CoFlow under `k` and returns its slot. Must not already be
  /// present.
  Slot insert(CoflowState* c, const OrderKey& k);

  /// Removes a CoFlow (no-op when absent, so completion deltas can be
  /// replayed idempotently).
  void erase(CoflowId id);

  /// The slot holding `id`, or npos.
  [[nodiscard]] Slot find(CoflowId id) const;
  [[nodiscard]] CoflowState* state(Slot s) const { return entry(s).state; }

  /// Re-keys the entry at `s` to `k` in place (exact no-op when the key is
  /// unchanged). Returns whether the key changed.
  bool update(Slot s, const OrderKey& k);

  /// Marks the entry at `s` dirty for materialization without changing its
  /// key: any rank at or after it loses prefix-replay eligibility. Used
  /// when a CoFlow's *state* changed (flow completed, data-availability
  /// flipped) in a way the order key does not capture but admission
  /// depends on.
  void touch(Slot s) { dirty_at(entry(s).key); }

  [[nodiscard]] std::size_t size() const { return slot_of_.size(); }

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
  struct Entry {
    OrderKey key;
    CoflowState* state = nullptr;
    bool live = false;
    /// Inserted or re-keyed since the last materialize (listed in moved_).
    bool moved = false;
  };
  [[nodiscard]] const Entry& entry(Slot s) const {
    SAATH_EXPECTS(s < entries_.size() && entries_[s].live);
    return entries_[s];
  }
  void dirty_at(const OrderKey& k);

  std::vector<Entry> entries_;
  IdTable<Slot> slot_of_;
  /// Slots free for insert(), and slots erased since the last materialize:
  /// the cached order still names those, so they are freed only by it.
  std::vector<Slot> free_;
  std::vector<Slot> erased_;
  std::vector<Slot> moved_;
  /// Materialization cache: states, the keys they were emitted under, and
  /// their slots.
  std::vector<CoflowState*> cached_;
  std::vector<OrderKey> cached_keys_;
  std::vector<Slot> cached_slots_;
  bool dirty_any_ = false;
  OrderKey dirty_floor_{};
};

/// Saath's time triggers as an indexed min-heap of (instant, id), at most
/// one entry per CoFlow, popped in (instant, id) order: one instance holds
/// each CoFlow's next queue-threshold crossing, another its unexpired D5
/// deadline. A CoFlow's table cell holds its heap position and the memo
/// the crossing side reads (see current()), so re-arming or erasing sifts
/// in place and a warm heap allocates nothing. A disarmed entry (instant
/// kNever) keeps its memo with no heap item: the "no crossing" tombstone.
/// Crossing instants may be conservative (early) — a due pop whose CoFlow
/// has not actually crossed just re-arms — but must never be late.
class TriggerHeap {
 public:
  /// Sets `id`'s trigger to absolute instant `at`, adding the entry when
  /// absent; kNever disarms it. `traj` and `queue` record the inputs a
  /// crossing was derived from (see current()).
  void set(CoflowId id, SimTime at, std::uint64_t traj = 0, int queue = 0);

  /// True when `id`'s entry (armed or disarmed) was set from the same
  /// (CoflowState::trajectory_version, queue): every flow trajectory is
  /// provably unchanged, so the recorded crossing is still exact and the
  /// caller can skip its O(flows) re-derivation.
  [[nodiscard]] bool current(CoflowId id, std::uint64_t traj,
                             int queue) const;

  /// Drops `id`'s entry (no-op when absent).
  void erase(CoflowId id);

  /// Earliest armed instant, kNever when none.
  [[nodiscard]] SimTime next() const {
    return heap_.empty() ? kNever : heap_.top().at;
  }
  /// Armed entries (tombstones excluded).
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Pops every entry due at `now` (instant <= now) into `fn(CoflowId)`, in
  /// (instant, id) order; a popped entry leaves with its memo.
  template <typename Fn>
  SAATH_HOT_NOALLOC void pop_due(SimTime now, Fn&& fn) {
    while (!heap_.empty() && heap_.top().at <= now) {
      const CoflowId id = heap_.top().id;
      erase(id);
      fn(id);
    }
  }

 private:
  struct Item {
    SimTime at = kNever;
    CoflowId id{};
    friend bool operator<(const Item& a, const Item& b) {
      if (a.at != b.at) return a.at < b.at;
      return a.id < b.id;
    }
  };
  static constexpr std::uint32_t kDisarmed = ~std::uint32_t{0};
  struct Entry {
    /// Heap position, kDisarmed when the entry holds no heap item.
    std::uint32_t pos = kDisarmed;
    /// Derivation memo for current().
    int queue = 0;
    std::uint64_t traj = 0;
  };
  /// Records an item's heap position in its table entry.
  [[nodiscard]] auto placed() {
    return [this](const Item& item, std::size_t i) {
      entries_.value(entries_.find(item.id.value)).pos =
          static_cast<std::uint32_t>(i);
    };
  }

  IndexedHeap<Item> heap_;
  IdTable<Entry> entries_;
};

}  // namespace saath
