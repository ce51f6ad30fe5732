// Incremental CoFlow contention — the spatial-occupancy index (§2.4, §3
// idea 3, §4 Table 2).
//
// k_c, the number of *other* CoFlows that share an occupied port with c
// (restricted, as Saath's LCoF does, to CoFlows in the same priority
// queue), used to be recomputed from scratch by a batch count every time
// any event invalidated a whole-schedule dirty bit. SpatialIndex maintains
// the port occupancy and k_c together, from deltas:
//
//  * a CoFlow arrival joins the bucket of every port where it has an
//    unfinished flow, and adds overlap with each co-resident;
//  * a flow completion leaves a bucket only when the CoFlow's own
//    PortLoad::unfinished_flows for that port reached zero (the index
//    keeps no second copy of those counts), and touches only the (at most
//    two) buckets it frees. Node failures restart flows but never finish
//    them, so dynamics events leave occupancy untouched;
//  * per pair of CoFlows it tracks the number of shared occupied port
//    slots ("overlap"); k_c is the count of same-group neighbors with
//    overlap > 0, and a queue reassignment re-scores only the CoFlow's own
//    neighbor set.
//
// Every update is O(affected neighbors) instead of O(active x ports), which
// is what makes the coordinator's order phase (Table 2) independent of the
// epoch rate. Storage is dense and keyed by the caller's Slot (Saath gives
// each announced CoFlow one): a slot's record holds its port places, its
// occupied count, group, k_c, occupancy version and an overlap table keyed
// by neighbor slot, so no call looks anything up by id. Sender and
// receiver ports are separate resources (machine i's uplink and downlink),
// so the bucket of a directed port is 2*port (uplink) or 2*port+1
// (downlink), an index into a vector that grows on demand as ports are
// first seen. Buckets list member slots and each place records its
// position in its bucket, so leaving is an O(1) swap-remove. A released
// slot's record keeps its capacity, so a warm index allocates nothing.
// The batch count lives in tests/reference/; the property suite asserts
// equality with it after every event.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coflow/coflow.h"
#include "common/flat_table.h"
#include "common/ids.h"

namespace saath::spatial {

/// Bucket index for a directed port slot.
[[nodiscard]] constexpr std::uint32_t sender_bucket(PortIndex p) {
  return 2 * static_cast<std::uint32_t>(p);
}
[[nodiscard]] constexpr std::uint32_t receiver_bucket(PortIndex p) {
  return 2 * static_cast<std::uint32_t>(p) + 1;
}

class SpatialIndex {
 public:
  /// One CoFlow's entry in a bucket: its slot and which of its places
  /// (see Place) points back at this bucket.
  struct Member {
    Slot slot = kNoSlot;
    std::uint32_t place = 0;
  };

  /// Registers `c` at `slot` with its current unfinished-flow occupancy
  /// and priority-queue group. Returns false, changing nothing, when the
  /// slot already holds a CoFlow.
  bool add_coflow(Slot slot, const CoflowState& c, int group);

  /// Unregisters the CoFlow at `slot` (on completion, or when a consumer
  /// resets), freeing the slot for another CoFlow. Returns how many
  /// buckets it left (0 when all of its flows finished).
  std::size_t remove(Slot slot);

  /// A flow of `c`, at `slot`, completed; must be called once per
  /// completion, after CoflowState updated its own load lists (the
  /// lifecycle hook order of sim/scheduler.h guarantees this). Leaves each
  /// of the flow's two port buckets where c has no unfinished flow left,
  /// and reports which it left. A CoFlow that missed a call stays out of
  /// sync (see in_sync()) until re-added.
  OccupancyDelta on_flow_complete(Slot slot, const CoflowState& c,
                                  const FlowState& flow);

  /// True when no occupancy change of `c`, at `slot`, happened behind the
  /// index's back (CoflowState::occupancy_version matches): the detector a
  /// consumer checks to catch a completion delivered without its hook.
  [[nodiscard]] bool in_sync(Slot slot, const CoflowState& c) const;

  /// Moves the CoFlow at `slot` to priority-queue group `group`, rescoring
  /// contention for it and its port neighbors.
  void set_group(Slot slot, int group);

  /// k_c: distinct same-group CoFlows sharing an occupied port with the
  /// CoFlow at `slot`.
  [[nodiscard]] int contention(Slot slot) const {
    return entry(slot).contention;
  }
  [[nodiscard]] int group_of(Slot slot) const { return entry(slot).group; }

  /// Slots whose k_c changed since the last clear_contention_changes().
  /// Every increment and decrement of a k_c records its slot, once per
  /// clear (twice if it was removed and re-added in between). This is what
  /// lets an order index re-key only the CoFlows a completion or queue
  /// move actually perturbed. It may list slots removed since, which
  /// consumers skip. The list grows until cleared, so a delta consumer
  /// drains it every round.
  [[nodiscard]] std::span<const Slot> contention_changes() const {
    return changes_;
  }
  void clear_contention_changes();

  [[nodiscard]] bool contains(Slot slot) const {
    return slot < entries_.size() && entries_[slot].live;
  }
  /// CoFlows currently indexed.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// CoFlows currently occupying a bucket (unordered; stable between
  /// mutations). Empty span for buckets never joined.
  [[nodiscard]] std::span<const Member> members(std::uint32_t bucket) const {
    if (bucket >= buckets_.size()) return {};
    return buckets_[bucket];
  }
  /// Distinct buckets the CoFlow at `slot` still occupies.
  [[nodiscard]] std::size_t occupied_buckets(Slot slot) const {
    return entry(slot).occupied;
  }

 private:
  /// A CoFlow's port slots, aligned with its load lists: place s is
  /// sender_loads()[s], place senders+r is receiver_loads()[r]. `pos` is
  /// the CoFlow's index in the bucket's member list, kAbsent while the
  /// port carries none of its unfinished flows.
  struct Place {
    static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
    std::uint32_t bucket = 0;
    std::uint32_t pos = kAbsent;
  };
  /// Neighbor slot -> number of shared occupied port slots (> 0).
  using OverlapTable = FlatTable<Slot, int, kNoSlot>;

  struct Entry {
    bool live = false;
    int group = 0;
    int contention = 0;
    /// Buckets currently joined.
    std::uint32_t occupied = 0;
    /// Places [0, senders) mirror sender_loads(), the rest receiver_loads().
    std::uint32_t senders = 0;
    /// CoflowState::occupancy_version at index time.
    std::uint64_t version = 0;
    /// change_epoch_ value when this slot last landed in changes_ (dedup
    /// stamp; ~0 = never).
    std::uint64_t change_stamp = ~std::uint64_t{0};
    std::vector<Place> places;
    OverlapTable overlap;
  };

  [[nodiscard]] const Entry& entry(Slot slot) const;
  void join(Slot slot, std::uint32_t place);
  void leave(Slot slot, std::uint32_t place);
  void add_overlap(Slot a, Entry& ea, Slot b);
  void drop_overlap(Slot a, Entry& ea, Slot b);
  /// drop_overlap against every member of `bucket` other than `a`.
  void drop_bucket(Slot a, Entry& ea, std::uint32_t bucket);
  void note_contention_change(Slot slot, Entry& e);

  /// Indexed by slot; a released slot's entry keeps its places' and
  /// overlap table's capacity.
  std::vector<Entry> entries_;
  /// Member lists by bucket index (2*port+side).
  std::vector<std::vector<Member>> buckets_;
  std::vector<Slot> changes_;
  std::size_t size_ = 0;
  std::uint64_t change_epoch_ = 0;
};

}  // namespace saath::spatial
