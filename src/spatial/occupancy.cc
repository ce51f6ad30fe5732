#include "spatial/occupancy.h"

#include "common/expect.h"

namespace saath::spatial {

void OccupancyIndex::join(Slot slot, std::uint32_t place) {
  Seat& seat = seats_[slot];
  Place& p = seat.places[place];
  if (p.bucket >= buckets_.size()) buckets_.resize(p.bucket + 1);
  std::vector<Member>& members = buckets_[p.bucket];
  p.pos = static_cast<std::uint32_t>(members.size());
  members.push_back({slot, place});
  ++seat.occupied;
}

void OccupancyIndex::leave(Slot slot, std::uint32_t place) {
  Seat& seat = seats_[slot];
  Place& p = seat.places[place];
  SAATH_EXPECTS(p.pos != Place::kAbsent);
  std::vector<Member>& members = buckets_[p.bucket];
  const Member moved = members.back();
  members[p.pos] = moved;
  seats_[moved.slot].places[moved.place].pos = p.pos;
  members.pop_back();
  p.pos = Place::kAbsent;
  --seat.occupied;
}

SAATH_HOT_NOALLOC Slot OccupancyIndex::add_coflow(const CoflowState& c) {
  const auto hit = slot_of_.insert(c.id().value);
  if (!hit.inserted) return kNoSlot;
  Slot slot;
  if (free_.empty()) {
    slot = static_cast<Slot>(seats_.size());
    seats_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  slot_of_.value(hit.index) = slot;
  Seat& seat = seats_[slot];
  seat.id = c.id();
  seat.occupied = 0;
  seat.senders = static_cast<std::uint32_t>(c.sender_loads().size());
  seat.places.clear();
  const auto add_places = [&](std::span<const PortLoad> loads, bool sender) {
    for (const PortLoad& load : loads) {
      const auto place = static_cast<std::uint32_t>(seat.places.size());
      seat.places.push_back(
          {sender ? sender_bucket(load.port) : receiver_bucket(load.port),
           Place::kAbsent});
      if (load.unfinished_flows > 0) join(slot, place);
    }
  };
  add_places(c.sender_loads(), true);
  add_places(c.receiver_loads(), false);
  return slot;
}

std::size_t OccupancyIndex::remove(Slot slot) {
  Seat& seat = seats_[slot];
  const std::size_t left = seat.occupied;
  for (std::uint32_t place = 0; place < seat.places.size(); ++place) {
    if (seat.places[place].pos != Place::kAbsent) leave(slot, place);
  }
  const bool erased = slot_of_.erase(seat.id.value);
  SAATH_EXPECTS(erased);
  free_.push_back(slot);
  return left;
}

SAATH_HOT_NOALLOC OccupancyDelta OccupancyIndex::on_flow_complete(
    Slot slot, const CoflowState& c, const FlowState& flow) {
  const Seat& seat = seats_[slot];
  SAATH_EXPECTS(seat.places.size() ==
                c.sender_loads().size() + c.receiver_loads().size());
  const std::uint32_t s = flow.sender_slot();
  const std::uint32_t r = flow.receiver_slot();
  SAATH_EXPECTS(s < seat.senders && seat.senders + r < seat.places.size());
  OccupancyDelta delta;
  delta.sender_freed = c.sender_loads()[s].unfinished_flows == 0;
  delta.receiver_freed = c.receiver_loads()[r].unfinished_flows == 0;
  if (delta.sender_freed) leave(slot, s);
  if (delta.receiver_freed) leave(slot, seat.senders + r);
  return delta;
}

std::size_t OccupancyIndex::occupied_slots(CoflowId id) const {
  const Slot slot = find(id);
  return slot == kNoSlot ? 0 : seats_[slot].occupied;
}

}  // namespace saath::spatial
