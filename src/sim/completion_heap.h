// Indexed min-heap of predicted flow completion instants: at most one entry
// per flow.
//
// Each flow records the position of its entry (FlowState::heap_pos, written
// whenever the IndexedHeap core of common/indexed_heap.h moves it), so a
// rate change moves that one entry in place — up when the flow now finishes
// sooner, down when later — and a prediction of kNever erases it. The heap
// never holds more entries than there are live flows, however often the
// scheduler re-rates them, and each push, pop or erase is one O(log F)
// sift.
//
// An entry carries the rate version it was pushed at. A rate change made
// without a push (RateAssignment::begin_epoch's zeroing, a restart) leaves
// the entry stale until the next push at the flow's version updates it, or
// until it reaches the top and is dropped there. The valid entries — flows
// whose latest push carries their current version — pop in (time, flow id)
// order, and that order is all the engine observes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "coflow/coflow.h"
#include "common/expect.h"
#include "common/indexed_heap.h"

namespace saath {

class CompletionHeap {
 public:
  /// Moves the flow's entry to its current predicted finish, inserting it
  /// if the flow holds none; returns true then. Returns false without a
  /// change when the flow is finished or its entry already carries the
  /// current rate version (a quiescent reassignment, or a zeroed rate the
  /// scheduler restored), and false after erasing the entry when the flow
  /// cannot finish at its current rate.
  SAATH_HOT_NOALLOC bool push(FlowState* flow, CoflowState* coflow) {
    if (flow->finished()) return false;
    const std::uint64_t version = flow->rate_version();
    const std::uint32_t pos = flow->heap_pos();
    const bool queued = pos != FlowState::kNoHeapPos;
    if (queued && heap_[pos].version == version) return false;
    const SimTime at = flow->predicted_finish();
    if (at == kNever) {
      if (queued) erase_at(pos);
      return false;
    }
    if (queued) {
      heap_[pos].time = at;
      heap_[pos].version = version;
      heap_.fix(pos, Placed{});
    } else {
      heap_.push({at, flow->id().value, version, flow, coflow}, Placed{});
    }
    return true;
  }

  /// Removes the flow's entry, if it holds one (a CoFlow abandoned mid-run,
  /// whose state is about to be freed).
  void erase(const FlowState& flow) {
    if (flow.heap_pos() != FlowState::kNoHeapPos) erase_at(flow.heap_pos());
  }

  /// Earliest still-valid completion instant; kNever when none is queued.
  [[nodiscard]] SAATH_HOT_NOALLOC SimTime next_time() {
    prune();
    return heap_.empty() ? kNever : heap_.top().time;
  }

  /// Pops every valid entry with time <= `at`, invoking fn(coflow, flow)
  /// for each in (time, flow id) order; fn may push, and entries its side
  /// effects invalidate are dropped on the way.
  template <typename Fn>
  SAATH_HOT_NOALLOC void pop_due(SimTime at, Fn&& fn) {
    for (;;) {
      prune();
      if (heap_.empty() || heap_.top().time > at) return;
      const Entry top = heap_.top();
      erase_at(0);
      fn(*top.coflow, *top.flow);
    }
  }

  /// Entries held, stale ones included; never more than the flows pushed.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

 private:
  struct Entry {
    SimTime time = 0;
    /// The flow's id, copied so that ordering never dereferences a flow.
    std::int64_t id = 0;
    std::uint64_t version = 0;
    FlowState* flow = nullptr;
    CoflowState* coflow = nullptr;

    /// Min-order on (time, flow id): the id tie-break keeps same-instant
    /// completions in a deterministic order.
    friend bool operator<(const Entry& a, const Entry& b) {
      return a.time != b.time ? a.time < b.time : a.id < b.id;
    }
  };

  [[nodiscard]] static bool stale(const Entry& e) {
    return e.flow->finished() || e.version != e.flow->rate_version();
  }

  /// Records each position the heap writes an entry to in its flow.
  struct Placed {
    void operator()(const Entry& e, std::size_t i) const {
      e.flow->set_heap_pos(static_cast<std::uint32_t>(i));
    }
  };

  SAATH_HOT_NOALLOC void prune() {
    while (!heap_.empty() && stale(heap_.top())) erase_at(0);
  }

  void erase_at(std::size_t i) {
    heap_[i].flow->set_heap_pos(FlowState::kNoHeapPos);
    heap_.erase(i, Placed{});
  }

  /// Keeps its capacity across epochs: no allocation in steady state.
  IndexedHeap<Entry> heap_;
};

}  // namespace saath
