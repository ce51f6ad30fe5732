// Incremental per-port occupancy (the spatial half of §3 idea 3).
//
// The spatial state every Saath mechanism reads — "which CoFlows currently
// have an unfinished flow on which sender/receiver port" — used to be
// rebuilt from CoflowState::sender_loads()/receiver_loads() scans on every
// scheduling epoch. OccupancyIndex maintains the same state as a
// delta-driven structure: CoFlow arrival joins its port buckets, and a flow
// completion leaves a bucket only when the CoFlow's own
// PortLoad::unfinished_flows for that port reached zero — the index keeps
// no second copy of those counts. Node failures restart flows but never
// finish them, so dynamics events leave occupancy untouched — exactly
// matching the oracle in sched/contention.cc.
//
// Storage is dense. Each indexed CoFlow holds a slot, assigned on add and
// recycled on removal; one lookup in a flat id -> slot table per call finds
// it. Sender and receiver ports are separate resources (machine i's uplink
// and downlink), so the bucket of a directed port is 2*port (uplink) or
// 2*port+1 (downlink), an index into a vector that grows on demand as
// ports are first seen. Buckets list member slots; each slot records its
// position in every bucket it occupies, so leaving is an O(1) swap-remove.
// All of it recycles capacity, so a warm index allocates nothing. Its one
// consumer is LCoF's k_c (spatial/contention.h); the work-conservation
// backfill reads port liveness from Fabric and per-port flows from
// CoflowState's slot lists instead.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coflow/coflow.h"
#include "common/flat_table.h"
#include "common/ids.h"

namespace saath::spatial {

/// Dense per-CoFlow handle, valid from add to removal.
using Slot = std::uint32_t;
inline constexpr Slot kNoSlot = ~Slot{0};

/// Bucket index for a directed port slot.
[[nodiscard]] constexpr std::uint32_t sender_bucket(PortIndex p) {
  return 2 * static_cast<std::uint32_t>(p);
}
[[nodiscard]] constexpr std::uint32_t receiver_bucket(PortIndex p) {
  return 2 * static_cast<std::uint32_t>(p) + 1;
}

class OccupancyIndex {
 public:
  /// One CoFlow's entry in a bucket: its slot and which of its places
  /// (see Place) points back at this bucket.
  struct Member {
    Slot slot = kNoSlot;
    std::uint32_t place = 0;
  };
  /// A CoFlow's port slots, aligned with its load lists: place s is
  /// sender_loads()[s], place senders+r is receiver_loads()[r]. `pos` is
  /// the CoFlow's index in the bucket's member list, kAbsent while the
  /// port carries none of its unfinished flows.
  struct Place {
    static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
    std::uint32_t bucket = 0;
    std::uint32_t pos = kAbsent;
  };

  /// Gives `c` a slot and joins it to every port bucket where it has
  /// unfinished flows. Returns kNoSlot, changing nothing, when c is
  /// already indexed.
  Slot add_coflow(const CoflowState& c);

  /// Leaves every bucket `slot` still occupies and recycles the slot;
  /// returns how many buckets it left (0 when all of its flows finished).
  std::size_t remove(Slot slot);

  /// A flow of the CoFlow at `slot` finished; `c` already counts it.
  /// Leaves each of the flow's two port buckets where c has no unfinished
  /// flow left, and reports which it left. O(1): the flow's port slots
  /// are its places.
  OccupancyDelta on_flow_complete(Slot slot, const CoflowState& c,
                                  const FlowState& flow);

  /// The slot of `id`, or kNoSlot.
  [[nodiscard]] Slot find(CoflowId id) const {
    const std::size_t i = slot_of_.find(id.value);
    return i == SlotTable::npos ? kNoSlot : slot_of_.value(i);
  }
  [[nodiscard]] bool contains(CoflowId id) const {
    return find(id) != kNoSlot;
  }
  [[nodiscard]] std::size_t num_coflows() const { return slot_of_.size(); }

  /// CoFlows currently occupying a bucket (unordered; stable between
  /// mutations). Empty span for buckets never joined.
  [[nodiscard]] std::span<const Member> members(std::uint32_t bucket) const {
    if (bucket >= buckets_.size()) return {};
    return buckets_[bucket];
  }
  /// The port slots of the CoFlow at `slot` (see Place).
  [[nodiscard]] std::span<const Place> places(Slot slot) const {
    return seats_[slot].places;
  }

  /// Distinct buckets `id` still occupies.
  [[nodiscard]] std::size_t occupied_slots(CoflowId id) const;

 private:
  using SlotTable = IdTable<Slot>;

  struct Seat {
    CoflowId id;
    /// Buckets currently joined.
    std::uint32_t occupied = 0;
    /// Places [0, senders) mirror sender_loads(), the rest receiver_loads().
    std::uint32_t senders = 0;
    std::vector<Place> places;
  };

  void join(Slot slot, std::uint32_t place);
  void leave(Slot slot, std::uint32_t place);

  SlotTable slot_of_;
  std::vector<Seat> seats_;
  /// Recycled slots, reused last-freed first.
  std::vector<Slot> free_;
  /// Member lists by bucket index (2*port+side).
  std::vector<std::vector<Member>> buckets_;
};

}  // namespace saath::spatial
