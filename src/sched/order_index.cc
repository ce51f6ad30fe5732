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

SAATH_HOT_NOALLOC void QueueCrossingHeap::program(CoflowState* c, SimTime at,
                                                  std::uint64_t traj,
                                                  int queue) {
  SAATH_EXPECTS(c != nullptr);
  const auto hit = live_.insert(c->id().value);
  Live& l = live_.value(hit.index);
  l.state = c;
  l.traj = traj;
  l.queue = queue;
  if (!hit.inserted && l.at == at) {
    // Same trigger instant re-derived (steady-state re-rates): the queued
    // entry stands — no seq bump, no heap push.
    return;
  }
  l.at = at;
  l.seq = ++next_seq_;  // invalidates any armed heap item
  if (at != kNever) pending_.push_back({at, c->id(), l.seq});
}

SAATH_HOT_NOALLOC void QueueCrossingHeap::flush() const {
  if (pending_.empty()) return;
  if (pending_.size() * 8 >= heap_.size() + pending_.size()) {
    heap_.insert(heap_.end(), pending_.begin(), pending_.end());
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  } else {
    for (const Item& item : pending_) {
      heap_.push_back(item);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
  }
  pending_.clear();
  if (heap_.size() > 2 * live_.size() + 64) {
    std::erase_if(heap_, [this](const Item& item) {
      const std::size_t cell = live_.find(item.id.value);
      return cell == live_.npos || live_.value(cell).seq != item.seq;
    });
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
}

bool QueueCrossingHeap::current(CoflowId id, std::uint64_t traj,
                                int queue) const {
  const std::size_t cell = live_.find(id.value);
  return cell != live_.npos && live_.value(cell).traj == traj &&
         live_.value(cell).queue == queue;
}

void QueueCrossingHeap::erase(CoflowId id) { live_.erase(id.value); }

std::size_t QueueCrossingHeap::programmed() const {
  std::size_t n = 0;
  live_.for_each(
      [&n](std::int64_t, const Live& l) { n += l.at != kNever; });
  return n;
}

SAATH_HOT_NOALLOC SimTime QueueCrossingHeap::next() const {
  flush();
  while (!heap_.empty()) {
    const Item& top = heap_.front();
    const std::size_t cell = live_.find(top.id.value);
    if (cell != live_.npos && live_.value(cell).seq == top.seq) return top.at;
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
  return kNever;
}

SAATH_HOT_NOALLOC void DeadlineHeap::set(CoflowId id, SimTime at) {
  const auto hit = pos_.insert(id.value);
  if (hit.inserted) {
    pos_.value(hit.index) = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back({at, id});
    sift_up(heap_.size() - 1);
    return;
  }
  const std::size_t i = pos_.value(hit.index);
  const Item old = heap_[i];
  heap_[i].at = at;
  if (heap_[i] < old) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void DeadlineHeap::erase(CoflowId id) {
  const std::size_t cell = pos_.find(id.value);
  if (cell != pos_.npos) remove_at(pos_.value(cell));
}

void DeadlineHeap::remove_at(std::size_t i) {
  pos_.erase(heap_[i].id.value);
  const Item last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  heap_[i] = last;
  if (i > 0 && last < heap_[(i - 1) / 2]) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void DeadlineHeap::sift_up(std::size_t i) {
  const Item item = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(item < heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, item);
}

void DeadlineHeap::sift_down(std::size_t i) {
  const Item item = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
    if (!(heap_[child] < item)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, item);
}

void DeadlineHeap::place(std::size_t i, const Item& item) {
  heap_[i] = item;
  pos_.value(pos_.find(item.id.value)) = static_cast<std::uint32_t>(i);
}

}  // namespace saath
