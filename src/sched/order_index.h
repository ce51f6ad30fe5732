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
// in a flat array indexed by the CoFlow's Slot, which the caller assigns;
// an arrival, completion, queue move, contention change or deadline expiry
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
// schedule_valid_until() reads both tops in O(1). Each heap item carries
// its CoFlow's slot, and the positions and crossing memos live in a vector
// indexed by it. The heap stores instants, ids and slots only; the
// scheduler derives the instants from the closed-form FlowState
// trajectories (sched/saath.cc), so nothing here reads a flow.
//
// Neither structure looks anything up by id, and every one is flat —
// vectors that keep their capacity — so once warm a round allocates
// nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "coflow/coflow.h"
#include "common/expect.h"
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
  /// Adds a CoFlow at `slot` under `k`. The slot must not hold an entry,
  /// nor one erased since the last materialize(): the cached order still
  /// names that one.
  void insert(Slot slot, CoflowState* c, const OrderKey& k);

  /// Removes the entry at `slot` (no-op when it holds none, so completion
  /// deltas can be replayed idempotently). The slot takes a new entry only
  /// after the next materialize().
  void erase(Slot slot);

  /// True when `slot` holds an entry.
  [[nodiscard]] bool contains(Slot slot) const {
    return slot < entries_.size() && entries_[slot].live;
  }
  [[nodiscard]] CoflowState* state(Slot slot) const {
    return entry(slot).state;
  }

  /// Re-keys the entry at `slot` to `k` in place (exact no-op when the key
  /// is unchanged). Returns whether the key changed.
  bool update(Slot slot, const OrderKey& k);

  /// Marks the entry at `slot` dirty for materialization without changing
  /// its key: any rank at or after it loses prefix-replay eligibility.
  /// Used when a CoFlow's *state* changed (flow completed,
  /// data-availability flipped) in a way the order key does not capture
  /// but admission depends on.
  void touch(Slot slot) { dirty_at(entry(slot).key); }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Rebuilds the materialized total order, reusing the still-clean prefix
  /// of the previous materialization. Returns the first rank that may
  /// differ from the previous call (== size() when nothing was dirtied:
  /// the whole order, and any decisions cached against it, stand).
  std::size_t materialize();

  /// The order as of the last materialize(): states, the keys they were
  /// emitted under, and their slots.
  [[nodiscard]] std::span<CoflowState* const> ordered() const {
    return cached_;
  }
  [[nodiscard]] std::span<const OrderKey> ordered_keys() const {
    return cached_keys_;
  }
  [[nodiscard]] std::span<const Slot> ordered_slots() const {
    return cached_slots_;
  }

 private:
  struct Entry {
    OrderKey key;
    CoflowState* state = nullptr;
    bool live = false;
    /// Erased since the last materialize, which still has to drop it.
    bool erased = false;
    /// Inserted or re-keyed since the last materialize (listed in moved_).
    bool moved = false;
  };
  [[nodiscard]] const Entry& entry(Slot slot) const {
    SAATH_EXPECTS(contains(slot));
    return entries_[slot];
  }
  void dirty_at(const OrderKey& k);

  std::vector<Entry> entries_;
  std::size_t size_ = 0;
  std::vector<Slot> moved_;
  /// Materialization cache.
  std::vector<CoflowState*> cached_;
  std::vector<OrderKey> cached_keys_;
  std::vector<Slot> cached_slots_;
  bool dirty_any_ = false;
  OrderKey dirty_floor_{};
};

/// Saath's time triggers as an indexed min-heap of (instant, id), at most
/// one entry per CoFlow slot, popped in (instant, id) order: one instance
/// holds each CoFlow's next queue-threshold crossing, another its unexpired
/// D5 deadline. A slot's entry holds its heap position and the memo the
/// crossing side reads (see current()), so re-arming or erasing sifts in
/// place and a warm heap allocates nothing. A disarmed entry (instant
/// kNever) keeps its memo with no heap item: the "no crossing" tombstone.
/// Crossing instants may be conservative (early) — a due pop whose CoFlow
/// has not actually crossed just re-arms — but must never be late.
class TriggerHeap {
 public:
  /// Sets the trigger of CoFlow `id`, at `slot`, to absolute instant `at`,
  /// adding the entry when absent; kNever disarms it. `traj` and `queue`
  /// record the inputs a crossing was derived from (see current()).
  void set(Slot slot, CoflowId id, SimTime at, std::uint64_t traj = 0,
           int queue = 0);

  /// True when `slot`'s entry (armed or disarmed) was set from the same
  /// (CoflowState::trajectory_version, queue): every flow trajectory is
  /// provably unchanged, so the recorded crossing is still exact and the
  /// caller can skip its O(flows) re-derivation.
  [[nodiscard]] bool current(Slot slot, std::uint64_t traj, int queue) const {
    return slot < entries_.size() && entries_[slot].present &&
           entries_[slot].traj == traj && entries_[slot].queue == queue;
  }

  /// Drops `slot`'s entry (no-op when absent).
  void erase(Slot slot);

  /// Earliest armed instant, kNever when none.
  [[nodiscard]] SimTime next() const {
    return heap_.empty() ? kNever : heap_.top().at;
  }
  /// Armed entries (tombstones excluded).
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Pops every entry due at `now` (instant <= now) into `fn(Slot)`, in
  /// (instant, id) order; a popped entry leaves with its memo.
  template <typename Fn>
  SAATH_HOT_NOALLOC void pop_due(SimTime now, Fn&& fn) {
    while (!heap_.empty() && heap_.top().at <= now) {
      const Slot slot = heap_.top().slot;
      erase(slot);
      fn(slot);
    }
  }

 private:
  struct Item {
    SimTime at = kNever;
    CoflowId id{};
    Slot slot = kNoSlot;
    friend bool operator<(const Item& a, const Item& b) {
      if (a.at != b.at) return a.at < b.at;
      return a.id < b.id;
    }
  };
  static constexpr std::uint32_t kDisarmed = ~std::uint32_t{0};
  struct Entry {
    bool present = false;
    /// Heap position, kDisarmed when the entry holds no heap item.
    std::uint32_t pos = kDisarmed;
    /// Derivation memo for current().
    int queue = 0;
    std::uint64_t traj = 0;
  };
  /// Records an item's heap position in its slot's entry.
  [[nodiscard]] auto placed() {
    return [this](const Item& item, std::size_t i) {
      entries_[item.slot].pos = static_cast<std::uint32_t>(i);
    };
  }

  IndexedHeap<Item> heap_;
  std::vector<Entry> entries_;
};

}  // namespace saath
