#include "spatial/contention.h"

#include "common/expect.h"

namespace saath::spatial {

const SpatialIndex::Entry& SpatialIndex::entry(Slot slot) const {
  SAATH_EXPECTS(contains(slot));
  return entries_[slot];
}

void SpatialIndex::note_contention_change(Slot slot, Entry& e) {
  if (e.change_stamp == change_epoch_) return;
  e.change_stamp = change_epoch_;
  changes_.push_back(slot);
}

void SpatialIndex::join(Slot slot, std::uint32_t place) {
  Entry& e = entries_[slot];
  Place& p = e.places[place];
  if (p.bucket >= buckets_.size()) buckets_.resize(p.bucket + 1);
  std::vector<Member>& members = buckets_[p.bucket];
  p.pos = static_cast<std::uint32_t>(members.size());
  members.push_back({slot, place});
  ++e.occupied;
}

void SpatialIndex::leave(Slot slot, std::uint32_t place) {
  Entry& e = entries_[slot];
  Place& p = e.places[place];
  SAATH_EXPECTS(p.pos != Place::kAbsent);
  std::vector<Member>& members = buckets_[p.bucket];
  const Member moved = members.back();
  members[p.pos] = moved;
  entries_[moved.slot].places[moved.place].pos = p.pos;
  members.pop_back();
  p.pos = Place::kAbsent;
  --e.occupied;
}

void SpatialIndex::add_overlap(Slot a, Entry& ea, Slot b) {
  Entry& eb = entries_[b];
  const std::size_t ia = ea.overlap.insert(b).index;
  ++eb.overlap.value(eb.overlap.insert(a).index);
  if (++ea.overlap.value(ia) == 1 && ea.group == eb.group) {
    ++ea.contention;
    ++eb.contention;
    note_contention_change(a, ea);
    note_contention_change(b, eb);
  }
}

void SpatialIndex::drop_overlap(Slot a, Entry& ea, Slot b) {
  Entry& eb = entries_[b];
  const std::size_t ia = ea.overlap.find(b);
  const std::size_t ib = eb.overlap.find(a);
  SAATH_EXPECTS(ia != OverlapTable::npos && ib != OverlapTable::npos);
  int& ov_a = ea.overlap.value(ia);
  int& ov_b = eb.overlap.value(ib);
  SAATH_EXPECTS(ov_a == ov_b && ov_a > 0);
  --ov_b;
  if (--ov_a == 0) {
    ea.overlap.erase_at(ia);
    eb.overlap.erase_at(ib);
    if (ea.group == eb.group) {
      SAATH_EXPECTS(ea.contention > 0 && eb.contention > 0);
      --ea.contention;
      --eb.contention;
      note_contention_change(a, ea);
      note_contention_change(b, eb);
    }
  }
}

void SpatialIndex::drop_bucket(Slot a, Entry& ea, std::uint32_t bucket) {
  for (const Member& m : members(bucket)) {
    if (m.slot != a) drop_overlap(a, ea, m.slot);
  }
}

SAATH_HOT_NOALLOC bool SpatialIndex::add_coflow(Slot slot, const CoflowState& c,
                                                int group) {
  SAATH_EXPECTS(slot != kNoSlot);
  if (contains(slot)) return false;
  if (slot >= entries_.size()) entries_.resize(slot + 1);
  Entry& e = entries_[slot];
  SAATH_EXPECTS(e.overlap.empty());
  e.live = true;
  e.group = group;
  e.contention = 0;
  e.occupied = 0;
  e.senders = static_cast<std::uint32_t>(c.sender_loads().size());
  e.version = c.occupancy_version();
  e.change_stamp = ~std::uint64_t{0};
  e.places.clear();
  const auto add_places = [&](std::span<const PortLoad> loads, bool sender) {
    for (const PortLoad& load : loads) {
      const auto place = static_cast<std::uint32_t>(e.places.size());
      e.places.push_back(
          {sender ? sender_bucket(load.port) : receiver_bucket(load.port),
           Place::kAbsent});
      if (load.unfinished_flows > 0) join(slot, place);
    }
  };
  add_places(c.sender_loads(), true);
  add_places(c.receiver_loads(), false);
  ++size_;
  // The CoFlow joined its buckets first: the co-resident scan below sees
  // the final membership and just skips the CoFlow itself.
  for (const Place& p : e.places) {
    if (p.pos == Place::kAbsent) continue;
    for (const Member& m : members(p.bucket)) {
      if (m.slot != slot) add_overlap(slot, e, m.slot);
    }
  }
  return true;
}

std::size_t SpatialIndex::remove(Slot slot) {
  SAATH_EXPECTS(contains(slot));
  Entry& e = entries_[slot];
  const std::size_t left = e.occupied;
  // Draining every still-occupied bucket empties the overlap table pair by
  // pair; a finished CoFlow occupies nothing and drops straight out.
  for (std::uint32_t place = 0; place < e.places.size(); ++place) {
    if (e.places[place].pos == Place::kAbsent) continue;
    drop_bucket(slot, e, e.places[place].bucket);
    leave(slot, place);
  }
  SAATH_EXPECTS(e.overlap.empty());
  SAATH_EXPECTS(e.contention == 0);
  e.live = false;
  --size_;
  return left;
}

SAATH_HOT_NOALLOC OccupancyDelta SpatialIndex::on_flow_complete(
    Slot slot, const CoflowState& c, const FlowState& flow) {
  SAATH_EXPECTS(contains(slot));
  Entry& e = entries_[slot];
  // Each completion bumps the CoFlow's occupancy version by one. Follow it
  // only while no completion was missed, so in_sync() reports one that was.
  if (e.version + 1 == c.occupancy_version()) e.version = c.occupancy_version();
  SAATH_EXPECTS(e.places.size() ==
                c.sender_loads().size() + c.receiver_loads().size());
  const std::uint32_t s = flow.sender_slot();
  const std::uint32_t r = flow.receiver_slot();
  SAATH_EXPECTS(s < e.senders && e.senders + r < e.places.size());
  OccupancyDelta freed;
  freed.sender_freed = c.sender_loads()[s].unfinished_flows == 0;
  freed.receiver_freed = c.receiver_loads()[r].unfinished_flows == 0;
  if (freed.sender_freed) {
    leave(slot, s);
    drop_bucket(slot, e, sender_bucket(flow.src()));
  }
  if (freed.receiver_freed) {
    leave(slot, e.senders + r);
    drop_bucket(slot, e, receiver_bucket(flow.dst()));
  }
  return freed;
}

bool SpatialIndex::in_sync(Slot slot, const CoflowState& c) const {
  return entry(slot).version == c.occupancy_version();
}

void SpatialIndex::set_group(Slot slot, int group) {
  SAATH_EXPECTS(contains(slot));
  Entry& e = entries_[slot];
  if (e.group == group) return;
  e.overlap.for_each([&](Slot d, int ov) {
    SAATH_EXPECTS(ov > 0);
    Entry& ed = entries_[d];
    const bool was_same = ed.group == e.group;
    const bool now_same = ed.group == group;
    if (was_same == now_same) return;
    const int step = now_same ? 1 : -1;
    e.contention += step;
    ed.contention += step;
    note_contention_change(slot, e);
    note_contention_change(d, ed);
  });
  e.group = group;
}

void SpatialIndex::clear_contention_changes() {
  changes_.clear();
  ++change_epoch_;
}

}  // namespace saath::spatial
