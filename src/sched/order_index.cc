#include "sched/order_index.h"

#include <algorithm>

#include "common/expect.h"

namespace saath {

void OrderIndex::dirty_at(const OrderKey& k) {
  if (!dirty_any_ || k < dirty_floor_) dirty_floor_ = k;
  dirty_any_ = true;
}

void OrderIndex::insert(Slot slot, CoflowState* c, const OrderKey& k) {
  SAATH_EXPECTS(c != nullptr && slot != kNoSlot);
  SAATH_EXPECTS(k.id == c->id());
  if (slot >= entries_.size()) entries_.resize(slot + 1);
  Entry& e = entries_[slot];
  SAATH_EXPECTS(!e.live);
  // An entry erased since the last materialize may still be listed.
  if (!e.moved) moved_.push_back(slot);
  e = Entry{k, c, /*live=*/true, /*moved=*/true};
  ++size_;
  dirty_at(k);
}

void OrderIndex::erase(Slot slot) {
  if (!contains(slot)) return;
  Entry& e = entries_[slot];
  dirty_at(e.key);
  e.live = false;
  --size_;
}

bool OrderIndex::update(Slot slot, const OrderKey& k) {
  SAATH_EXPECTS(entry(slot).key.id == k.id);
  Entry& e = entries_[slot];
  if (!(e.key < k) && !(k < e.key) && e.key.deadline == k.deadline) {
    return false;
  }
  dirty_at(e.key);
  dirty_at(k);
  e.key = k;
  if (!e.moved) {
    e.moved = true;
    moved_.push_back(slot);
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
  // still sorted: compact it in place. A slot re-inserted since it left is
  // moved, so its old occurrence drops here too.
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
  for (const Slot s : moved_) entries_[s].moved = false;
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
  moved_.clear();
  dirty_any_ = false;
  return prefix;
}

SAATH_HOT_NOALLOC void TriggerHeap::set(Slot slot, CoflowId id, SimTime at,
                                        std::uint64_t traj, int queue) {
  SAATH_EXPECTS(slot != kNoSlot);
  if (slot >= entries_.size()) entries_.resize(slot + 1);
  Entry& e = entries_[slot];
  e.present = true;
  e.traj = traj;
  e.queue = queue;
  const std::uint32_t pos = e.pos;
  if (pos == kDisarmed) {
    if (at != kNever) heap_.push({at, id, slot}, placed());
  } else if (at == kNever) {
    e.pos = kDisarmed;
    heap_.erase(pos, placed());
  } else if (heap_[pos].at != at) {
    SAATH_EXPECTS(heap_[pos].id == id);
    heap_[pos].at = at;
    heap_.fix(pos, placed());
  }
}

SAATH_HOT_NOALLOC void TriggerHeap::erase(Slot slot) {
  if (slot >= entries_.size() || !entries_[slot].present) return;
  Entry& e = entries_[slot];
  const std::uint32_t pos = e.pos;
  e = Entry{};
  if (pos != kDisarmed) heap_.erase(pos, placed());
}

}  // namespace saath
