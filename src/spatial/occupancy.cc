#include "spatial/occupancy.h"

#include "common/expect.h"

namespace saath::spatial {

void OccupancyIndex::join(CoflowId id, std::int64_t bucket) {
  Bucket& b = buckets_[bucket];
  const auto [it, inserted] = b.position.emplace(id, b.members.size());
  SAATH_EXPECTS(inserted);
  (void)it;
  b.members.push_back(id);
}

void OccupancyIndex::leave(CoflowId id, std::int64_t bucket) {
  const auto bit = buckets_.find(bucket);
  SAATH_EXPECTS(bit != buckets_.end());
  Bucket& b = bit->second;
  const auto pit = b.position.find(id);
  SAATH_EXPECTS(pit != b.position.end());
  const std::size_t pos = pit->second;
  b.position.erase(pit);
  const CoflowId moved = b.members.back();
  b.members[pos] = moved;
  b.members.pop_back();
  if (moved != id) b.position[moved] = pos;
}

const std::vector<std::int64_t>& OccupancyIndex::add_coflow(
    const CoflowState& c) {
  SAATH_EXPECTS(!contains(c.id()));
  Slots& slots = coflows_[c.id()];
  touched_.clear();
  for (const auto& load : c.sender_loads()) {
    if (load.unfinished_flows == 0) continue;
    slots.unfinished.emplace(sender_bucket(load.port), load.unfinished_flows);
    touched_.push_back(sender_bucket(load.port));
  }
  for (const auto& load : c.receiver_loads()) {
    if (load.unfinished_flows == 0) continue;
    slots.unfinished.emplace(receiver_bucket(load.port), load.unfinished_flows);
    touched_.push_back(receiver_bucket(load.port));
  }
  for (const std::int64_t bucket : touched_) join(c.id(), bucket);
  return touched_;
}

const std::vector<std::int64_t>& OccupancyIndex::remove_coflow(CoflowId id) {
  const auto it = coflows_.find(id);
  SAATH_EXPECTS(it != coflows_.end());
  touched_.clear();
  for (const auto& [bucket, unfinished] : it->second.unfinished) {
    SAATH_EXPECTS(unfinished > 0);
    touched_.push_back(bucket);
  }
  for (const std::int64_t bucket : touched_) leave(id, bucket);
  coflows_.erase(it);
  return touched_;
}

SlotDelta OccupancyIndex::on_flow_complete(CoflowId id, PortIndex src,
                                           PortIndex dst) {
  const auto it = coflows_.find(id);
  SAATH_EXPECTS(it != coflows_.end());
  Slots& slots = it->second;
  SlotDelta delta;
  const auto drop = [&](std::int64_t bucket) {
    const auto sit = slots.unfinished.find(bucket);
    SAATH_EXPECTS(sit != slots.unfinished.end() && sit->second > 0);
    if (--sit->second == 0) {
      slots.unfinished.erase(sit);
      leave(id, bucket);
      return true;
    }
    return false;
  };
  if (drop(sender_bucket(src))) delta.sender_freed = src;
  if (drop(receiver_bucket(dst))) delta.receiver_freed = dst;
  return delta;
}

std::span<const CoflowId> OccupancyIndex::members(std::int64_t bucket) const {
  const auto it = buckets_.find(bucket);
  if (it == buckets_.end()) return {};
  return it->second.members;
}

void OccupancyIndex::collect_live_occupants(
    std::span<const PortIndex> live_senders,
    std::span<const PortIndex> live_receivers,
    std::vector<CoflowId>& out) const {
  // Two-pass stamp intersection: mark every occupant of a live sender slot,
  // then emit (once) every marked occupant of a live receiver slot. A
  // CoFlow missing from either side cannot have a flow with both endpoints
  // live, so skipping it is exact for any budget-gated consumer.
  const std::uint64_t sender_mark = ++join_epoch_;
  for (const PortIndex p : live_senders) {
    for (const CoflowId id : members(sender_bucket(p))) {
      coflows_.find(id)->second.join_stamp = sender_mark;
    }
  }
  const std::uint64_t emitted_mark = ++join_epoch_;
  for (const PortIndex p : live_receivers) {
    for (const CoflowId id : members(receiver_bucket(p))) {
      const Slots& slots = coflows_.find(id)->second;
      if (slots.join_stamp == sender_mark) {
        slots.join_stamp = emitted_mark;
        out.push_back(id);
      }
    }
  }
}

std::size_t OccupancyIndex::occupied_slots(CoflowId id) const {
  const auto it = coflows_.find(id);
  return it == coflows_.end() ? 0 : it->second.unfinished.size();
}

void OccupancyIndex::clear() {
  buckets_.clear();
  coflows_.clear();
  touched_.clear();
}

}  // namespace saath::spatial
