#include "spatial/contention.h"

#include "common/expect.h"

namespace saath::spatial {

void SpatialIndex::note_contention_change(Entry& e) {
  if (e.change_stamp == change_epoch_) return;
  e.change_stamp = change_epoch_;
  changes_.push_back(e.id);
}

const SpatialIndex::Entry& SpatialIndex::entry(CoflowId id) const {
  const Slot slot = occupancy_.find(id);
  SAATH_EXPECTS(slot != kNoSlot);
  return entries_[slot];
}

void SpatialIndex::add_overlap(Slot a, Entry& ea, Slot b) {
  Entry& eb = entries_[b];
  const std::size_t ia = ea.overlap.insert(b).index;
  ++eb.overlap.value(eb.overlap.insert(a).index);
  if (++ea.overlap.value(ia) == 1 && ea.group == eb.group) {
    ++ea.contention;
    ++eb.contention;
    note_contention_change(ea);
    note_contention_change(eb);
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
      note_contention_change(ea);
      note_contention_change(eb);
    }
  }
}

void SpatialIndex::drop_bucket(Slot a, Entry& ea, std::uint32_t bucket) {
  for (const OccupancyIndex::Member& m : occupancy_.members(bucket)) {
    if (m.slot != a) drop_overlap(a, ea, m.slot);
  }
}

SAATH_HOT_NOALLOC bool SpatialIndex::add_coflow(const CoflowState& c,
                                                int group) {
  const Slot slot = occupancy_.add_coflow(c);
  if (slot == kNoSlot) return false;
  if (slot >= entries_.size()) entries_.resize(slot + 1);
  Entry& e = entries_[slot];
  SAATH_EXPECTS(e.overlap.empty());
  e.id = c.id();
  e.group = group;
  e.contention = 0;
  e.version = c.occupancy_version();
  e.change_stamp = ~std::uint64_t{0};
  // The CoFlow joined its buckets first: the co-resident scan below sees
  // the final membership and just skips the CoFlow itself.
  for (const OccupancyIndex::Place& p : occupancy_.places(slot)) {
    if (p.pos == OccupancyIndex::Place::kAbsent) continue;
    for (const OccupancyIndex::Member& m : occupancy_.members(p.bucket)) {
      if (m.slot != slot) add_overlap(slot, e, m.slot);
    }
  }
  return true;
}

bool SpatialIndex::remove_coflow(CoflowId id) {
  const Slot slot = occupancy_.find(id);
  if (slot == kNoSlot) return false;
  Entry& e = entries_[slot];
  // Draining every still-occupied bucket empties the overlap table pair by
  // pair; a finished CoFlow occupies nothing and drops straight out.
  for (const OccupancyIndex::Place& p : occupancy_.places(slot)) {
    if (p.pos != OccupancyIndex::Place::kAbsent) drop_bucket(slot, e, p.bucket);
  }
  SAATH_EXPECTS(e.overlap.empty());
  SAATH_EXPECTS(e.contention == 0);
  occupancy_.remove(slot);
  return true;
}

SAATH_HOT_NOALLOC bool SpatialIndex::on_flow_complete(const CoflowState& c,
                                                      const FlowState& flow) {
  const Slot slot = occupancy_.find(c.id());
  if (slot == kNoSlot) return false;
  Entry& e = entries_[slot];
  // Each completion bumps the CoFlow's occupancy version by one. Follow it
  // only while no completion was missed, so in_sync() reports one that was.
  if (e.version + 1 == c.occupancy_version()) e.version = c.occupancy_version();
  const OccupancyDelta freed = occupancy_.on_flow_complete(slot, c, flow);
  if (freed.sender_freed) drop_bucket(slot, e, sender_bucket(flow.src()));
  if (freed.receiver_freed) drop_bucket(slot, e, receiver_bucket(flow.dst()));
  return true;
}

bool SpatialIndex::in_sync(const CoflowState& c) const {
  const Slot slot = occupancy_.find(c.id());
  return slot != kNoSlot && entries_[slot].version == c.occupancy_version();
}

void SpatialIndex::set_group(CoflowId id, int group) {
  const Slot slot = occupancy_.find(id);
  SAATH_EXPECTS(slot != kNoSlot);
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
    note_contention_change(e);
    note_contention_change(ed);
  });
  e.group = group;
}

int SpatialIndex::contention(CoflowId id) const {
  return entry(id).contention;
}

int SpatialIndex::group_of(CoflowId id) const { return entry(id).group; }

void SpatialIndex::clear_contention_changes() {
  changes_.clear();
  ++change_epoch_;
}

}  // namespace saath::spatial
