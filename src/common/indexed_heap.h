// Binary min-heap that tells its owner where each entry sits: the core of
// the engine's completion heap (positions kept in each FlowState) and of
// Saath's time triggers (positions kept in a table keyed by CoFlow id).
//
// push, fix and erase call placed(entry, pos) for every position they
// write an entry to, so an owner that records those positions can re-key
// or erase any entry in place with one O(log n) sift. erase does not
// report the entry it removes; its owner forgets that position itself.
// Entries are ordered by their operator<, minimum on top. Owners break
// ties by id, so entries pop in one order whatever the heap's layout. The
// vector keeps its capacity, so a warm heap allocates nothing.
#pragma once

#include <cstddef>
#include <vector>

namespace saath {

template <typename Entry>
class IndexedHeap {
 public:
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] const Entry& top() const { return heap_.front(); }

  /// The entry at position i; call fix(i) after changing its key.
  [[nodiscard]] Entry& operator[](std::size_t i) { return heap_[i]; }

  template <typename Placed>
  void push(const Entry& e, Placed&& placed) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1, placed);
  }

  /// Restores the order around position i after its entry's key changed.
  template <typename Placed>
  void fix(std::size_t i, Placed&& placed) {
    if (i > 0 && heap_[i] < heap_[(i - 1) / 2]) {
      sift_up(i, placed);
    } else {
      sift_down(i, placed);
    }
  }

  /// Removes the entry at position i, moving the last entry into its place.
  template <typename Placed>
  void erase(std::size_t i, Placed&& placed) {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    heap_[i] = last;
    fix(i, placed);
  }

 private:
  template <typename Placed>
  void sift_up(std::size_t i, Placed& placed) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(e < heap_[parent])) break;
      heap_[i] = heap_[parent];
      placed(heap_[i], i);
      i = parent;
    }
    heap_[i] = e;
    placed(e, i);
  }

  template <typename Placed>
  void sift_down(std::size_t i, Placed& placed) {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
      if (!(heap_[child] < e)) break;
      heap_[i] = heap_[child];
      placed(heap_[i], i);
      i = child;
    }
    heap_[i] = e;
    placed(e, i);
  }

  std::vector<Entry> heap_;
};

}  // namespace saath
