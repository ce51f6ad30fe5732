#include "sched/order_index.h"

#include <algorithm>

#include "common/expect.h"

namespace saath {

void OrderIndex::dirty_at(const OrderKey& k) {
  if (!dirty_any_ || k < dirty_floor_) dirty_floor_ = k;
  dirty_any_ = true;
}

void OrderIndex::insert(CoflowState* c, const OrderKey& k) {
  SAATH_EXPECTS(c != nullptr);
  SAATH_EXPECTS(!contains(k.id));
  SAATH_EXPECTS(k.id == c->id());
  const auto [it, ok] = order_.emplace(k, c);
  SAATH_EXPECTS(ok);
  by_id_.emplace(k.id, it);
  dirty_at(k);
}

void OrderIndex::erase(CoflowId id) {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return;
  dirty_at(it->second->first);
  order_.erase(it->second);
  by_id_.erase(it);
}

void OrderIndex::update(CoflowId id, const OrderKey& k) {
  const auto it = by_id_.find(id);
  SAATH_EXPECTS(it != by_id_.end());
  SAATH_EXPECTS(k.id == id);
  const OrderKey& old = it->second->first;
  if (!(old < k) && !(k < old) && old.deadline == k.deadline) return;
  dirty_at(old);
  dirty_at(k);
  // Extract + re-insert reuses the map node — re-keying is allocation-free.
  auto node = order_.extract(it->second);
  node.key() = k;
  const auto ins = order_.insert(std::move(node));
  SAATH_EXPECTS(ins.inserted);
  it->second = ins.position;
}

void OrderIndex::touch(CoflowId id) {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return;
  dirty_at(it->second->first);
}

CoflowState* OrderIndex::state_of(CoflowId id) const {
  return by_id_.at(id)->second;
}

SAATH_HOT_NOALLOC std::size_t OrderIndex::materialize() {
  if (!dirty_any_) return cached_.size();
  // Every mutation since the last materialization involved keys
  // >= dirty_floor_, so cached entries strictly below the floor are
  // exactly the current entries below it, in unchanged order.
  const auto cit = std::lower_bound(cached_keys_.begin(), cached_keys_.end(),
                                    dirty_floor_);
  const auto prefix = static_cast<std::size_t>(cit - cached_keys_.begin());
  cached_.resize(prefix);
  cached_keys_.resize(prefix);
  for (auto it = order_.lower_bound(dirty_floor_); it != order_.end(); ++it) {
    cached_.push_back(it->second);
    cached_keys_.push_back(it->first);
  }
  dirty_any_ = false;
  return prefix;
}

SAATH_HOT_NOALLOC void QueueCrossingHeap::program(CoflowState* c, SimTime at,
                                                  std::uint64_t traj,
                                                  int queue) {
  SAATH_EXPECTS(c != nullptr);
  const auto [it, inserted] = live_.try_emplace(c->id());
  Live& l = it->second;
  l.state = c;
  l.traj = traj;
  l.queue = queue;
  if (!inserted && l.at == at) {
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
}

bool QueueCrossingHeap::current(CoflowId id, std::uint64_t traj,
                                int queue) const {
  const auto it = live_.find(id);
  return it != live_.end() && it->second.traj == traj &&
         it->second.queue == queue;
}

void QueueCrossingHeap::erase(CoflowId id) { live_.erase(id); }

std::size_t QueueCrossingHeap::programmed() const {
  std::size_t n = 0;
  for (const auto& [id, l] : live_) n += l.at != kNever;
  return n;
}

SAATH_HOT_NOALLOC SimTime QueueCrossingHeap::next() const {
  flush();
  while (!heap_.empty()) {
    const Item& top = heap_.front();
    const auto it = live_.find(top.id);
    if (it != live_.end() && it->second.seq == top.seq) return top.at;
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
  return kNever;
}

}  // namespace saath
