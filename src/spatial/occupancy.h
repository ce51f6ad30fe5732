// Incremental per-port occupancy (the spatial half of §3 idea 3).
//
// The spatial state every Saath mechanism reads — "which CoFlows currently
// have an unfinished flow on which sender/receiver port" — used to be
// rebuilt from CoflowState::sender_loads()/receiver_loads() scans on every
// scheduling epoch. OccupancyIndex maintains the same state as a
// delta-driven structure: CoFlow arrival joins its port buckets, each flow
// completion decrements exactly two slot counters (src uplink, dst
// downlink) and leaves a bucket only when the last unfinished flow on that
// slot finishes. Node failures restart flows but never finish them, so
// dynamics events leave occupancy untouched — exactly matching the oracle
// in sched/contention.cc.
//
// Sender and receiver ports are separate resources (machine i's uplink and
// downlink); buckets are keyed as 2*port for uplinks and 2*port+1 for
// downlinks so the index needs no a-priori port count.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "coflow/coflow.h"
#include "common/ids.h"

namespace saath::spatial {

/// Bucket key for a directed port slot.
[[nodiscard]] constexpr std::int64_t sender_bucket(PortIndex p) {
  return 2 * static_cast<std::int64_t>(p);
}
[[nodiscard]] constexpr std::int64_t receiver_bucket(PortIndex p) {
  return 2 * static_cast<std::int64_t>(p) + 1;
}

/// Which port memberships a flow completion released (kInvalidPort = none).
struct SlotDelta {
  PortIndex sender_freed = kInvalidPort;
  PortIndex receiver_freed = kInvalidPort;
};

class OccupancyIndex {
 public:
  /// Registers `c` on every port slot where it has unfinished flows and
  /// returns the joined bucket keys. `c` must not already be present.
  const std::vector<std::int64_t>& add_coflow(const CoflowState& c);

  /// Removes `c` from every bucket it still occupies; returns the left
  /// bucket keys (empty when all of c's flows already finished).
  const std::vector<std::int64_t>& remove_coflow(CoflowId id);

  /// A flow src->dst of `id` finished: decrements both slot counters and
  /// reports which (if any) memberships dropped to zero. O(1) amortized.
  SlotDelta on_flow_complete(CoflowId id, PortIndex src, PortIndex dst);

  [[nodiscard]] bool contains(CoflowId id) const {
    return coflows_.find(id) != coflows_.end();
  }
  [[nodiscard]] std::size_t num_coflows() const { return coflows_.size(); }

  /// CoFlows currently occupying a bucket (unordered; stable between
  /// mutations). Empty span for untouched buckets.
  [[nodiscard]] std::span<const CoflowId> members(std::int64_t bucket) const;

  /// Residual-budget join (the work-conservation backfill's spatial half):
  /// appends to `out` every distinct CoFlow that occupies at least one of
  /// `live_senders` AND at least one of `live_receivers` — the necessary
  /// condition for any of its flows to have both endpoints unexhausted.
  /// Cost is O(memberships of the live ports); output order is
  /// deterministic but unspecified (callers impose their own order).
  /// Logically const: only the dedup stamps mutate.
  void collect_live_occupants(std::span<const PortIndex> live_senders,
                              std::span<const PortIndex> live_receivers,
                              std::vector<CoflowId>& out) const;

  /// Distinct buckets `id` still occupies.
  [[nodiscard]] std::size_t occupied_slots(CoflowId id) const;

  void clear();

 private:
  struct Bucket {
    std::vector<CoflowId> members;
    /// Position of each member in `members` for O(1) swap-removal.
    std::unordered_map<CoflowId, std::size_t> position;
  };
  struct Slots {
    /// bucket key -> unfinished flows of this CoFlow on that slot.
    std::unordered_map<std::int64_t, int> unfinished;
    /// collect_live_occupants dedup stamp (two epochs per call: seen on a
    /// live sender, then emitted). Mutable bookkeeping, not index state.
    mutable std::uint64_t join_stamp = 0;
  };

  void join(CoflowId id, std::int64_t bucket);
  void leave(CoflowId id, std::int64_t bucket);

  std::unordered_map<std::int64_t, Bucket> buckets_;
  std::unordered_map<CoflowId, Slots> coflows_;
  /// Scratch returned by add_coflow/remove_coflow (valid until next call).
  std::vector<std::int64_t> touched_;
  /// Monotone epoch source for the join stamps.
  mutable std::uint64_t join_epoch_ = 0;
};

}  // namespace saath::spatial
