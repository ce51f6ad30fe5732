#include "sched/order_index.h"

#include <algorithm>

#include "common/expect.h"

namespace saath {

void OrderIndex::dirty_at(const OrderKey& k) {
  if (!dirty_any_ || k < dirty_floor_) dirty_floor_ = k;
  dirty_any_ = true;
}

OrderIndex::Slot OrderIndex::insert(CoflowState* c, const OrderKey& k) {
  SAATH_EXPECTS(c != nullptr);
  SAATH_EXPECTS(k.id == c->id());
  const auto hit = slot_of_.insert(k.id.value);
  SAATH_EXPECTS(hit.inserted);
  Slot s = 0;
  if (free_.empty()) {
    s = static_cast<Slot>(entries_.size());
    entries_.emplace_back();
  } else {
    s = free_.back();
    free_.pop_back();
  }
  slot_of_.value(hit.index) = s;
  entries_[s] = Entry{k, c, /*live=*/true, /*moved=*/true};
  moved_.push_back(s);
  dirty_at(k);
  return s;
}

void OrderIndex::erase(CoflowId id) {
  const std::size_t cell = slot_of_.find(id.value);
  if (cell == slot_of_.npos) return;
  const Slot s = slot_of_.value(cell);
  slot_of_.erase_at(cell);
  dirty_at(entries_[s].key);
  entries_[s].live = false;
  erased_.push_back(s);
}

OrderIndex::Slot OrderIndex::find(CoflowId id) const {
  const std::size_t cell = slot_of_.find(id.value);
  return cell == slot_of_.npos ? npos : slot_of_.value(cell);
}

bool OrderIndex::update(Slot s, const OrderKey& k) {
  SAATH_EXPECTS(entry(s).key.id == k.id);
  Entry& e = entries_[s];
  if (!(e.key < k) && !(k < e.key) && e.key.deadline == k.deadline) {
    return false;
  }
  dirty_at(e.key);
  dirty_at(k);
  e.key = k;
  if (!e.moved) {
    e.moved = true;
    moved_.push_back(s);
  }
  return true;
}

SAATH_HOT_NOALLOC std::size_t OrderIndex::materialize() {
  if (!dirty_any_) return cached_.size();
  // Every mutation since the last materialization involved keys
  // >= dirty_floor_, so cached entries strictly below the floor are
  // exactly the current entries below it, in unchanged order.
  const auto prefix = static_cast<std::size_t>(
      std::lower_bound(cached_keys_.begin(), cached_keys_.end(),
                       dirty_floor_) -
      cached_keys_.begin());
  // The rest of the old order, minus the entries that moved or left, is
  // still sorted: compact it in place.
  std::size_t kept = prefix;
  for (std::size_t r = prefix; r < cached_slots_.size(); ++r) {
    const Entry& e = entries_[cached_slots_[r]];
    if (!e.live || e.moved) continue;
    if (kept != r) {
      cached_[kept] = cached_[r];
      cached_keys_[kept] = cached_keys_[r];
      cached_slots_[kept] = cached_slots_[r];
    }
    ++kept;
  }
  // Every moved entry's key is at or above the floor (update() dirtied
  // it), so sorting the live ones and merging them in from the back
  // completes the tail.
  std::erase_if(moved_, [this](Slot s) { return !entries_[s].live; });
  std::sort(moved_.begin(), moved_.end(), [this](Slot a, Slot b) {
    return entries_[a].key < entries_[b].key;
  });
  const std::size_t size = kept + moved_.size();
  cached_.resize(size);
  cached_keys_.resize(size);
  cached_slots_.resize(size);
  std::size_t old = kept;
  for (std::size_t w = size, m = moved_.size(); m > 0;) {
    --w;
    const Entry& e = entries_[moved_[m - 1]];
    if (old > prefix && e.key < cached_keys_[old - 1]) {
      --old;
      cached_[w] = cached_[old];
      cached_keys_[w] = cached_keys_[old];
      cached_slots_[w] = cached_slots_[old];
    } else {
      --m;
      cached_[w] = e.state;
      cached_keys_[w] = e.key;
      cached_slots_[w] = moved_[m];
    }
  }
  for (const Slot s : moved_) entries_[s].moved = false;
  moved_.clear();
  free_.insert(free_.end(), erased_.begin(), erased_.end());
  erased_.clear();
  dirty_any_ = false;
  return prefix;
}

SAATH_HOT_NOALLOC void TriggerHeap::set(CoflowId id, SimTime at,
                                        std::uint64_t traj, int queue) {
  const std::size_t cell = entries_.insert(id.value).index;
  Entry& e = entries_.value(cell);
  e.traj = traj;
  e.queue = queue;
  const std::uint32_t pos = e.pos;
  if (pos == kDisarmed) {
    if (at != kNever) heap_.push({at, id}, placed());
  } else if (at == kNever) {
    e.pos = kDisarmed;
    heap_.erase(pos, placed());
  } else if (heap_[pos].at != at) {
    heap_[pos].at = at;
    heap_.fix(pos, placed());
  }
}

bool TriggerHeap::current(CoflowId id, std::uint64_t traj, int queue) const {
  const std::size_t cell = entries_.find(id.value);
  return cell != entries_.npos && entries_.value(cell).traj == traj &&
         entries_.value(cell).queue == queue;
}

SAATH_HOT_NOALLOC void TriggerHeap::erase(CoflowId id) {
  const std::size_t cell = entries_.find(id.value);
  if (cell == entries_.npos) return;
  const std::uint32_t pos = entries_.value(cell).pos;
  entries_.erase_at(cell);
  if (pos != kDisarmed) heap_.erase(pos, placed());
}

}  // namespace saath
