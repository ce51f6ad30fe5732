// Steady-state zero-allocation contract (ISSUE 8 / S2): once warm, a
// scheduling epoch over a fixed flow population must perform NO heap
// allocations in the epoch-cycled structures — RateAssignment's touched
// set, SchedulerDelta's dirty/requeue lists, CompletionHeap, Saath's
// TriggerHeap, the spatial index and Saath's hooks and rounds. All
// of them recycle vector and flat-table capacity across epochs.
//
// This binary (and only this binary) replaces the global operator
// new/delete with counting shims over malloc/free, so an allocation
// anywhere in the measured window is caught regardless of which layer
// performed it. Each test warms its structure until capacities stabilize,
// snapshots the counter, runs many more epochs, and asserts a zero delta.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#include "common/alloc_probe.h"
#include "coflow/coflow.h"
#include "fabric/fabric.h"
#include "sched/saath.h"
#include "sim/completion_heap.h"
#include "sim/rate_assignment.h"
#include "sim/scheduler.h"
#include "sched/order_index.h"
#include "spatial/contention.h"
#include "test_util.h"

// --------------------------------------------------------------------------
// Counting global allocator. Plain (unaligned) forms only: FlowPool's
// cache-aligned lanes go through the align_val_t overloads, which keep
// their library defaults — pool allocation happens at CoFlow construction,
// never inside an epoch, and mixing is safe because each form pairs with
// its own delete.

void* operator new(std::size_t n) {
  saath::debug_note_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t n) {
  saath::debug_note_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept {
  saath::debug_note_dealloc();
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept {
  saath::debug_note_dealloc();
  std::free(p);
}

void operator delete[](void* p) noexcept {
  saath::debug_note_dealloc();
  std::free(p);
}

void operator delete[](void* p, std::size_t) noexcept {
  saath::debug_note_dealloc();
  std::free(p);
}

namespace saath {
namespace {

using testing::make_coflow;

constexpr int kWarmupEpochs = 64;
constexpr int kMeasuredEpochs = 256;

/// Runs `epoch(e)` for warmup epochs, snapshots the allocation counter,
/// runs the measured epochs, and returns the allocation delta.
template <typename Fn>
std::uint64_t measure_steady_allocs(Fn&& epoch) {
  for (int e = 0; e < kWarmupEpochs; ++e) epoch(e);
  const std::uint64_t before = debug_alloc_count();
  for (int e = kWarmupEpochs; e < kWarmupEpochs + kMeasuredEpochs; ++e) {
    epoch(e);
  }
  return debug_alloc_count() - before;
}

TEST(AllocSteady, ProbeCountsThisBinarysAllocations) {
  const std::uint64_t before = debug_alloc_count();
  auto* p = new int(7);
  EXPECT_GT(debug_alloc_count(), before);
  const std::uint64_t freed_before = debug_dealloc_count();
  delete p;
  EXPECT_GT(debug_dealloc_count(), freed_before);
}

TEST(AllocSteady, RateAssignmentTouchedSetRecyclesCapacity) {
  CoflowState c(make_coflow(0, 0,
                            {{0, 1, 1000000000000}, {1, 2, 1000000000000}, {2, 0, 1000000000000},
                             {0, 2, 1000000000000}, {1, 0, 1000000000000}, {2, 1, 1000000000000}}),
                FlowId{0});
  RateAssignment rates(/*num_ports=*/3);
  CoflowState* const cp = &c;

  const std::uint64_t delta = measure_steady_allocs([&](int e) {
    rates.begin_epoch(seconds(e));
    // Alternate rates so every set() is a genuine touch, not a no-op.
    const Rate r = (e % 2) == 0 ? 100.0 : 50.0;
    for (auto& f : cp->flows()) rates.set(*cp, f, r);
  });
  EXPECT_EQ(delta, 0u);
}

TEST(AllocSteady, SchedulerDeltaMarksRecycleCapacity) {
  CoflowState c(make_coflow(0, 0, {{0, 1, 1000000000000}, {1, 0, 1000000000000}}), FlowId{0});
  SchedulerDelta delta_set;

  const std::uint64_t delta = measure_steady_allocs([&](int) {
    for (int i = 0; i < 8; ++i) delta_set.mark(&c);
    for (int i = 0; i < 4; ++i) delta_set.mark_requeue(&c);
    delta_set.clear_marks();
  });
  EXPECT_EQ(delta, 0u);
}

TEST(AllocSteady, CompletionHeapPushAndPruneRecycleCapacity) {
  CoflowState c(make_coflow(0, 0,
                            {{0, 1, 1000000000000}, {1, 2, 1000000000000}, {2, 0, 1000000000000},
                             {0, 2, 1000000000000}}),
                FlowId{0});
  CompletionHeap heap;
  CoflowState* const cp = &c;

  const std::uint64_t delta = measure_steady_allocs([&](int e) {
    // Every epoch re-rates every flow (new rate version) and pushes it,
    // re-inserting the entry the previous epoch's drain popped, queries
    // next_time(), then drains everything due, exercising the full
    // insert/sift/pop cycle on recycled capacity.
    const Rate r = (e % 2) == 0 ? 100.0 : 50.0;
    for (auto& f : cp->flows()) {
      f.set_rate(r, seconds(e));
      heap.push(&f, cp);
    }
    (void)heap.next_time();
    heap.pop_due(std::numeric_limits<SimTime>::max() / 2,
                 [](CoflowState&, FlowState&) {});
  });
  EXPECT_EQ(delta, 0u);
}

TEST(AllocSteady, QueueCrossingHeapReprogramRecyclesCapacity) {
  const CoflowId c0{0};
  const CoflowId c1{1};
  const CoflowId c2{2};
  const Slot s0 = 2;
  const Slot s1 = 0;
  const Slot s2 = 1;
  TriggerHeap heap;

  const std::uint64_t delta = measure_steady_allocs([&](int e) {
    // Steady-state re-rates re-derive each CoFlow's crossing instant and
    // re-arm it: the slot's entry is reused and the heap item moves in
    // place.
    heap.set(s0, c0, seconds(e + 1), /*traj=*/static_cast<std::uint64_t>(e),
             /*queue=*/0);
    heap.set(s1, c1, seconds(e + 2), /*traj=*/static_cast<std::uint64_t>(e),
             /*queue=*/1);
    (void)heap.next();
    // Erase/re-arm churn: c1 leaves, c2 enters as a tombstone and is
    // re-armed, c0's crossing comes due and pops, c2 leaves. The entry
    // vector and the heap reuse their capacity.
    heap.erase(s1);
    heap.set(s2, c2, kNever, /*traj=*/static_cast<std::uint64_t>(e),
             /*queue=*/2);
    heap.set(s2, c2, seconds(e + 3), /*traj=*/static_cast<std::uint64_t>(e),
             /*queue=*/2);
    heap.pop_due(seconds(e + 1), [](Slot) {});
    heap.erase(s2);
  });
  EXPECT_EQ(delta, 0u);
}

TEST(AllocSteady, SpatialIndexChurnRecyclesCapacity) {
  // A few dozen CoFlows over 16 ports; each spans four senders and four
  // receivers, so every arrival overlaps most of the population.
  constexpr int kResident = 32;
  constexpr int kPorts = 16;
  constexpr int kWidth = 4;
  std::int64_t next_flow = 0;
  const auto fresh = [&next_flow](int id) {
    CoflowSpec spec = make_coflow(id, 0, {});
    for (int j = 0; j < kWidth; ++j) {
      spec.flows.push_back({(id + j) % kPorts, (id + 3 * j + 1) % kPorts, 1000});
    }
    auto state = std::make_unique<CoflowState>(spec, FlowId{next_flow});
    next_flow += kWidth;
    return state;
  };

  // CoFlow v sits at slot v; the re-added and restored states take it over
  // once it is released, as Saath's slots are reused.
  spatial::SpatialIndex index;
  std::vector<std::unique_ptr<CoflowState>> resident;
  for (int i = 0; i < kResident; ++i) {
    resident.push_back(fresh(i));
    index.add_coflow(static_cast<Slot>(i), *resident.back(), i % 3);
  }

  // Only the index calls are counted: building a CoflowState allocates by
  // design and happens outside (its completions are counted in their own
  // case below).
  std::uint64_t index_allocs = 0;
  const auto counted = [&index_allocs](auto&& call) {
    const std::uint64_t before = debug_alloc_count();
    call();
    index_allocs += debug_alloc_count() - before;
  };
  const auto cycle = [&](int e) {
    const int v = e % kResident;
    const auto slot = static_cast<Slot>(v);
    // Remove -> re-add as a fresh state (all overlaps drop, then return),
    // complete every flow (each freed slot drops its pairs), move queues,
    // then restore the CoFlow so the population stays fully overlapped.
    auto readded = fresh(v);
    auto restored = fresh(v);
    counted([&] {
      index.remove(slot);
      index.add_coflow(slot, *readded, v % 3);
    });
    for (FlowState& f : readded->flows()) {
      readded->on_flow_complete(f, seconds(e + 1));
      counted([&] { index.on_flow_complete(slot, *readded, f); });
    }
    counted([&] {
      index.set_group(slot, (v + 1) % 3);
      index.set_group(static_cast<Slot>((v + 1) % kResident), (e + 2) % 3);
      index.remove(slot);
      index.add_coflow(slot, *restored, v % 3);
      index.clear_contention_changes();
    });
    resident[static_cast<std::size_t>(v)] = std::move(restored);
  };

  for (int e = 0; e < kWarmupEpochs; ++e) cycle(e);
  index_allocs = 0;
  for (int e = kWarmupEpochs; e < kWarmupEpochs + kMeasuredEpochs; ++e) {
    cycle(e);
  }
  EXPECT_EQ(index_allocs, 0u);
  EXPECT_EQ(index.size(), static_cast<std::size_t>(kResident));
}

/// A 6-mapper x 4-reducer mesh listed reducer by reducer.
CoflowSpec mesh_6x4() {
  CoflowSpec spec = make_coflow(0, 0, {});
  for (PortIndex r = 0; r < 4; ++r) {
    for (PortIndex m = 0; m < 6; ++m) {
      spec.flows.push_back({m, static_cast<PortIndex>(10 + r), 1000});
    }
  }
  return spec;
}

// Building a CoflowState allocates its per-CoFlow vectors once, outside any
// epoch, each at its final size: the spec copy, the flow handles, the two
// load lists, the two CSR slot lists and their two begin arrays, and the
// walk list (the FlowPool block goes through the aligned form, which this
// binary does not count). The port -> slot table is per-thread scratch
// that keeps its capacity, so a warm thread adds nothing for it.
TEST(AllocSteady, CoflowStateConstructionAllocations) {
  const CoflowSpec spec = mesh_6x4();
  { const CoflowState warm(spec, FlowId{0}); }
  bool ordered = false;
  const std::uint64_t allocs_before = debug_alloc_count();
  const std::uint64_t frees_before = debug_dealloc_count();
  {
    const CoflowState c(spec, FlowId{0});
    ordered = c.sender_walk_ordered() && c.receiver_walk_ordered();
  }
  const std::uint64_t allocs = debug_alloc_count() - allocs_before;
  const std::uint64_t frees = debug_dealloc_count() - frees_before;
  EXPECT_TRUE(ordered);
  EXPECT_EQ(allocs, 9u);
  EXPECT_EQ(frees, 9u);
}

// Completing a flow reads its two port slots, shifts its slot lists and
// compacts the walk list in place: a CoFlow's whole completion sequence
// allocates nothing, and neither does the §4.3 median once its per-thread
// scratch is warm.
TEST(AllocSteady, CoflowStateCompletionsAllocateNothing) {
  CoflowState warm(mesh_6x4(), FlowId{0});
  for (FlowState& f : warm.flows()) {
    (void)warm.on_flow_complete(f, seconds(1));
    (void)warm.finished_length_median();
  }

  CoflowState c(mesh_6x4(), FlowId{0});
  const std::uint64_t before = debug_alloc_count();
  SimTime t = 0;
  // Out of index order, so the slot lists shift from the middle.
  for (const std::size_t i : {7u, 0u, 23u, 12u, 5u, 18u, 1u, 2u, 3u, 4u, 6u,
                              8u, 9u, 10u, 11u, 13u, 14u, 15u, 16u, 17u,
                              19u, 20u, 21u, 22u}) {
    (void)c.on_flow_complete(c.flows()[i], t += msec(1));
    (void)c.finished_length_median();
  }
  EXPECT_EQ(debug_alloc_count() - before, 0u);
  EXPECT_TRUE(c.finished());
}

/// Allocations a warm Saath makes over the measured stream lifecycles,
/// split between its lifecycle hooks and its schedule() rounds.
struct SaathAllocs {
  std::uint64_t hooks = 0;
  std::uint64_t rounds = 0;
};

/// A warm Saath over a resident population sees one stream lifecycle per
/// epoch, the engine way: a fresh CoFlow arrives, rides a delta round,
/// completes flow by flow and leaves, and a second round follows. Only the
/// hooks and the rounds are counted: building the CoflowState allocates by
/// design and happens outside.
SaathAllocs measure_saath_lifecycles(SaathScheduler& sched) {
  constexpr int kResident = 32;
  constexpr int kPorts = 16;
  constexpr int kWidth = 4;
  std::int64_t next_flow = 0;
  const auto fresh = [&next_flow](int id, Bytes bytes) {
    CoflowSpec spec = make_coflow(id, 0, {});
    for (int j = 0; j < kWidth; ++j) {
      const int src = (id + j) % kPorts;
      spec.flows.push_back({src, (id + 3 * j + 1) % kPorts, bytes});
    }
    auto state = std::make_unique<CoflowState>(spec, FlowId{next_flow});
    next_flow += kWidth;
    return state;
  };

  Fabric fabric(kPorts, 1e9);
  RateAssignment rates(kPorts);
  SchedulerDelta delta;
  delta.stream_id = 4242;
  std::vector<std::unique_ptr<CoflowState>> resident;
  std::vector<CoflowState*> active;
  for (int i = 0; i < kResident; ++i) {
    resident.push_back(fresh(i, 1000000000000));
    active.push_back(resident.back().get());
    sched.on_coflow_arrival(*active.back(), 0);
    delta.mark(active.back());
  }
  active.reserve(kResident + 1);

  SaathAllocs allocs;
  const auto counted = [](std::uint64_t& into, auto&& call) {
    const std::uint64_t before = debug_alloc_count();
    call();
    into += debug_alloc_count() - before;
  };
  const auto round = [&](SimTime now) {
    fabric.reset();
    rates.begin_epoch(now);
    counted(allocs.rounds,
            [&] { sched.schedule(now, active, fabric, rates, delta); });
    delta.clear_marks();
  };
  round(0);

  const auto cycle = [&](int e) {
    const SimTime now = msec(8) * (e + 1);
    const auto arrival = fresh(kResident + e, 1000);
    CoflowState& c = *arrival;
    counted(allocs.hooks, [&] { sched.on_coflow_arrival(c, now); });
    active.push_back(&c);
    delta.mark(&c);
    round(now);
    for (FlowState& f : c.flows()) {
      rates.flow_stopped(f);
      c.on_flow_complete(f, now);
      counted(allocs.hooks, [&] { sched.on_flow_complete(c, f, now); });
      delta.mark(&c);
    }
    counted(allocs.hooks, [&] { sched.on_coflow_complete(c, now); });
    active.pop_back();
    // The next round still sees the finished CoFlow in its delta, and its
    // begin_epoch releases the flows the previous round rated.
    round(now + msec(4));
  };

  for (int e = 0; e < kWarmupEpochs; ++e) cycle(e);
  allocs = {};
  for (int e = kWarmupEpochs; e < kWarmupEpochs + kMeasuredEpochs; ++e) {
    cycle(e);
  }
  EXPECT_GT(sched.phase_stats().delta_rounds, 0);
  return allocs;
}

TEST(AllocSteady, SaathLifecycleHooksRecycleCapacity) {
  SaathScheduler sched;
  const SaathAllocs allocs = measure_saath_lifecycles(sched);
  EXPECT_EQ(allocs.hooks, 0u);
  EXPECT_EQ(sched.spatial_index().size(), 32u);
}

// The rounds of the same lifecycles: the admission order, the slot marks,
// the crossing and deadline heaps and every scratch list
// keep their capacity, so a warm round allocates nothing either — with
// deadlines on (the default preset) and under the all-off Aalo preset.
TEST(AllocSteady, SaathRoundsRecycleCapacity) {
  for (const bool aalo : {false, true}) {
    SCOPED_TRACE(aalo ? "aalo" : "saath");
    SaathScheduler sched(aalo ? aalo_config() : SaathConfig{});
    const SaathAllocs allocs = measure_saath_lifecycles(sched);
    EXPECT_EQ(allocs.rounds, 0u);
    EXPECT_EQ(allocs.hooks, 0u);
  }
}

}  // namespace
}  // namespace saath
