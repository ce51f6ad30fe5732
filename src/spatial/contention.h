// Incremental CoFlow contention — the spatial-occupancy index (§2.4, §3
// idea 3, §4 Table 2).
//
// k_c, the number of *other* CoFlows that share an occupied port with c
// (restricted, as Saath's LCoF does, to CoFlows in the same priority
// queue), used to be recomputed from scratch by a batch count every time
// any event invalidated a whole-schedule dirty bit. SpatialIndex
// maintains k_c incrementally on top of OccupancyIndex:
//
//  * per pair of CoFlows it tracks the number of shared occupied port
//    slots ("overlap"); k_c is the count of same-group neighbors with
//    overlap > 0;
//  * a CoFlow arrival adds overlap with each bucket co-resident; a flow
//    completion touches only the (at most two) buckets it frees; a queue
//    reassignment re-scores only the CoFlow's own neighbor set.
//
// Every update is O(affected neighbors) instead of O(active x ports), which
// is what makes the coordinator's order phase (Table 2) independent of the
// epoch rate. Per-CoFlow state lives at the CoFlow's OccupancyIndex slot,
// and each overlap table is a flat map keyed by neighbor slot, so a public
// call costs one id -> slot lookup and a warm index allocates nothing. The
// batch count lives in tests/reference/; the property suite asserts
// equality with it after every event.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "spatial/occupancy.h"

namespace saath::spatial {

class SpatialIndex {
 public:
  /// Registers an arriving CoFlow with its current unfinished-flow
  /// occupancy and priority-queue group. Returns false, changing nothing,
  /// when c is already indexed.
  bool add_coflow(const CoflowState& c, int group);

  /// Unregisters a CoFlow (on completion, or when a consumer resets).
  /// Returns false when `id` is not indexed.
  bool remove_coflow(CoflowId id);

  /// A flow of `c` completed; must be called once per completion, after
  /// CoflowState updated its own load lists (the lifecycle hook order of
  /// sim/scheduler.h guarantees this). A CoFlow that missed a call stays
  /// out of sync (see in_sync()) until re-added. Returns false when c is
  /// not indexed.
  bool on_flow_complete(const CoflowState& c, const FlowState& flow);

  /// True when `c` is indexed and no occupancy change happened behind the
  /// index's back (CoflowState::occupancy_version matches): the detector a
  /// consumer checks to catch a completion delivered without its hook.
  [[nodiscard]] bool in_sync(const CoflowState& c) const;

  /// Moves `id` to priority-queue group `group`, rescoring contention for
  /// it and its port neighbors.
  void set_group(CoflowId id, int group);

  /// k_c: distinct same-group CoFlows sharing an occupied port with `id`.
  [[nodiscard]] int contention(CoflowId id) const;
  [[nodiscard]] int group_of(CoflowId id) const;

  /// CoFlows whose k_c changed since the last clear_contention_changes().
  /// Every increment and decrement of a k_c records its CoFlow, once per
  /// clear (twice if it was removed and re-added in between). This is what
  /// lets an order index re-key only the CoFlows a completion or queue
  /// move actually perturbed. It may list CoFlows removed since, which
  /// consumers skip. The list grows until cleared, so a delta consumer
  /// drains it every round.
  [[nodiscard]] std::span<const CoflowId> contention_changes() const {
    return changes_;
  }
  void clear_contention_changes();

  [[nodiscard]] bool contains(CoflowId id) const {
    return occupancy_.contains(id);
  }
  [[nodiscard]] std::size_t size() const { return occupancy_.num_coflows(); }
  [[nodiscard]] const OccupancyIndex& occupancy() const { return occupancy_; }

 private:
  /// Neighbor slot -> number of shared occupied port slots (> 0).
  using OverlapTable = FlatTable<Slot, int, kNoSlot>;

  struct Entry {
    CoflowId id;
    int group = 0;
    int contention = 0;
    /// CoflowState::occupancy_version at index time.
    std::uint64_t version = 0;
    /// change_epoch_ value when this entry last landed in changes_
    /// (dedup stamp; ~0 = never).
    std::uint64_t change_stamp = ~std::uint64_t{0};
    OverlapTable overlap;
  };

  [[nodiscard]] const Entry& entry(CoflowId id) const;
  void add_overlap(Slot a, Entry& ea, Slot b);
  void drop_overlap(Slot a, Entry& ea, Slot b);
  /// drop_overlap against every member of `bucket` other than `a`.
  void drop_bucket(Slot a, Entry& ea, std::uint32_t bucket);
  void note_contention_change(Entry& e);

  OccupancyIndex occupancy_;
  /// Indexed by OccupancyIndex slot; a recycled slot's entry keeps its
  /// overlap table's capacity.
  std::vector<Entry> entries_;
  std::vector<CoflowId> changes_;
  std::uint64_t change_epoch_ = 0;
};

}  // namespace saath::spatial
