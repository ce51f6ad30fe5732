// The delta-driven schedule phase: OrderIndex / TriggerHeap unit
// tests, the satellite caches (finished-length median, O(1) spatial sync
// probe), and the property suite pinning the incremental order path
// byte-identical to the reference scheduler's full sort across churn —
// arrivals, completions, queue moves, deadline expiry, dynamics SRTF — on
// the production engine (skipping or scheduling every epoch) and against
// the reference engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "reference/reference.h"
#include "replay/journal.h"
#include "sched/factory.h"
#include "sched/order_index.h"
#include "sched/saath.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/synth.h"

namespace saath {
namespace {

using testing::make_coflow;
using testing::make_trace;
using testing::StateSet;

// ---------------------------------------------------------------- OrderKey

OrderKey key(bool expired, SimTime deadline, int queue, std::int64_t k,
             SimTime arrival, std::int64_t id) {
  return OrderKey{expired, deadline, queue, k, arrival, CoflowId{id}};
}

TEST(OrderKeyTest, ComparatorMirrorsTheSortLambda) {
  // Expired ahead of everything, earliest deadline first.
  EXPECT_LT(key(true, 50, 9, 99, 9, 9), key(false, kNever, 0, 0, 0, 0));
  EXPECT_LT(key(true, 10, 5, 5, 5, 5), key(true, 20, 0, 0, 0, 0));
  // Unexpired: deadline is ignored, queue ranks first.
  EXPECT_LT(key(false, 900, 1, 7, 7, 7), key(false, 100, 2, 0, 0, 0));
  // Same queue: contention/arrival slot, then arrival, then id.
  EXPECT_LT(key(false, kNever, 3, 1, 9, 9), key(false, kNever, 3, 2, 0, 0));
  EXPECT_LT(key(false, kNever, 3, 1, 4, 9), key(false, kNever, 3, 1, 5, 0));
  EXPECT_LT(key(false, kNever, 3, 1, 4, 1), key(false, kNever, 3, 1, 4, 2));
  // Total: equal everything differs only by id -> irreflexive.
  EXPECT_FALSE(key(false, kNever, 3, 1, 4, 2) < key(false, kNever, 3, 1, 4, 2));
}

// --------------------------------------------------------------- OrderIndex

class OrderIndexTest : public ::testing::Test {
 protected:
  /// The index stores CoflowState*; the tests only compare pointers, so a
  /// tiny real CoFlow per entry suffices.
  CoflowState* coflow(std::int64_t id) {
    set_.add(make_coflow(id, 0, {{0, 1, 100}}));
    return &set_.at(set_.size() - 1);
  }
  /// The slot a test files CoFlow `id` under. Slots run against ids, so
  /// no order can come from them.
  static Slot slot(std::int64_t id) { return static_cast<Slot>(99 - id); }
  StateSet set_;
};

TEST_F(OrderIndexTest, MaintainsSortedOrderAcrossChurn) {
  OrderIndex idx;
  auto* a = coflow(1);
  auto* b = coflow(2);
  auto* c = coflow(3);
  idx.insert(slot(1), a, key(false, kNever, 2, 0, 0, 1));
  idx.insert(slot(2), b, key(false, kNever, 0, 0, 0, 2));
  idx.insert(slot(3), c, key(false, kNever, 1, 0, 0, 3));
  idx.materialize();
  EXPECT_EQ(idx.ordered()[0], b);
  EXPECT_EQ(idx.ordered()[1], c);
  EXPECT_EQ(idx.ordered()[2], a);

  // Queue move: a jumps to the front.
  idx.update(slot(1), key(false, kNever, 0, -1, 0, 1));
  EXPECT_EQ(idx.materialize(), 0u);  // dirtied at the new front
  EXPECT_EQ(idx.ordered()[0], a);

  // Deadline expiry: c overtakes everyone.
  idx.update(slot(3), key(true, 5, 1, 0, 0, 3));
  EXPECT_EQ(idx.materialize(), 0u);
  EXPECT_EQ(idx.ordered()[0], c);

  idx.erase(slot(3));
  idx.materialize();
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.ordered()[0], a);
  EXPECT_EQ(idx.ordered()[1], b);
}

TEST_F(OrderIndexTest, MaterializeReusesCleanPrefix) {
  OrderIndex idx;
  std::vector<CoflowState*> states;
  for (std::int64_t i = 0; i < 8; ++i) {
    states.push_back(coflow(i));
    idx.insert(slot(i), states.back(), key(false, kNever, 0, i, 0, i));
  }
  EXPECT_EQ(idx.materialize(), 0u);  // first build: everything new
  // Clean round: the whole order (and any cached decisions) stands.
  EXPECT_EQ(idx.materialize(), 8u);

  // Dirty only rank 6 (key 6 -> 60): ranks 0..5 are reused verbatim.
  idx.update(slot(6), key(false, kNever, 0, 60, 0, 6));
  EXPECT_EQ(idx.materialize(), 6u);
  EXPECT_EQ(idx.ordered()[7], states[6]);

  // touch() fences without moving: same order, prefix ends at the rank.
  idx.touch(slot(3));
  EXPECT_EQ(idx.materialize(), 3u);
  EXPECT_EQ(idx.ordered()[3], states[3]);

  // Erase the front: rank 0 dirtied.
  idx.erase(slot(0));
  EXPECT_EQ(idx.materialize(), 0u);
  ASSERT_EQ(idx.ordered().size(), 7u);
  EXPECT_EQ(idx.ordered()[0], states[1]);
}

TEST_F(OrderIndexTest, UpdateWithSameKeyIsClean) {
  OrderIndex idx;
  auto* a = coflow(1);
  auto* b = coflow(2);
  idx.insert(slot(1), a, key(false, kNever, 0, 1, 0, 1));
  idx.insert(slot(2), b, key(false, kNever, 0, 2, 0, 2));
  idx.materialize();
  idx.update(slot(2), key(false, kNever, 0, 2, 0, 2));  // no-op
  EXPECT_EQ(idx.materialize(), 2u);
}

// Random churn against a model: the live keys under std::sort, and the
// dirty floor taken as the least key any mutation since the last
// materialize touched (insert, erase, both keys of a re-key, a touch).
// Slots are handed out the way Saath does: an erased entry's slot is
// reused, last released first, only after the next materialize. Covers
// re-inserting an id erased since the last materialize (on a fresh slot),
// repeated and same-key updates (deadline-only changes included) and
// touches.
TEST_F(OrderIndexTest, RandomChurnMatchesSortOfLiveKeys) {
  constexpr std::int64_t kIds = 64;
  std::vector<CoflowState*> states;
  for (std::int64_t i = 0; i < kIds; ++i) states.push_back(coflow(i));
  std::mt19937_64 rng(12345);
  const auto draw = [&rng](std::uint64_t n) {
    return static_cast<std::int64_t>(rng() % n);
  };
  const auto random_key = [&](std::int64_t id) {
    OrderKey k;
    k.expired = draw(8) == 0;
    k.deadline = !k.expired && draw(4) == 0 ? kNever : draw(50);
    k.queue = static_cast<int>(draw(4));
    k.key = draw(6);
    k.arrival = draw(5);
    k.id = CoflowId{id};
    return k;
  };

  OrderIndex idx;
  std::map<std::int64_t, OrderKey> live;
  std::map<std::int64_t, Slot> slot_of;
  std::vector<Slot> free_slots;
  std::vector<Slot> released;
  Slot next_slot = 0;
  std::vector<OrderKey> old_order;  // keys as of the last materialize
  std::optional<OrderKey> floor;
  const auto dirty = [&floor](const OrderKey& k) {
    if (!floor || k < *floor) floor = k;
  };
  const auto insert = [&](std::int64_t id) {
    const OrderKey k = random_key(id);
    Slot s = next_slot;
    if (free_slots.empty()) {
      ++next_slot;
    } else {
      s = free_slots.back();
      free_slots.pop_back();
    }
    ASSERT_FALSE(idx.contains(s));
    idx.insert(s, states[static_cast<std::size_t>(id)], k);
    slot_of[id] = s;
    live[id] = k;
    dirty(k);
  };
  const auto erase = [&](std::int64_t id) {
    const Slot s = slot_of.at(id);
    idx.erase(s);
    EXPECT_FALSE(idx.contains(s));
    released.push_back(s);
    slot_of.erase(id);
    dirty(live.at(id));
    live.erase(id);
  };
  for (int round = 0; round < 3000; ++round) {
    const std::int64_t ops = draw(3) == 0 ? 0 : 1 + draw(kIds / 4);
    for (std::int64_t op = 0; op < ops; ++op) {
      const std::int64_t id = draw(kIds);
      if (!live.contains(id)) {
        insert(id);
        continue;
      }
      // A slot holding no entry erases as a no-op: one never used, and one
      // released since the last materialize.
      idx.erase(static_cast<Slot>(1000 + id));
      if (!released.empty()) idx.erase(released.back());
      const OrderKey old = live.at(id);
      OrderKey k = old;
      switch (draw(7)) {
        case 0:
          erase(id);
          continue;
        case 1:  // leaves and comes back before the next materialize
          erase(id);
          insert(id);
          continue;
        case 2:
          idx.touch(slot_of.at(id));
          dirty(old);
          continue;
        case 3:  // same key: an exact no-op
          break;
        case 4:  // deadline only: reorders only an expired entry
          k.deadline = draw(50);
          break;
        default:
          k = random_key(id);
          break;
      }
      const bool changed = old < k || k < old || old.deadline != k.deadline;
      ASSERT_EQ(idx.update(slot_of.at(id), k), changed);
      if (changed) {
        dirty(old);
        dirty(k);
        live[id] = k;
      }
    }

    const std::size_t rank = idx.materialize();
    free_slots.insert(free_slots.end(), released.begin(), released.end());
    released.clear();
    const std::size_t expected_rank =
        floor ? static_cast<std::size_t>(
                    std::lower_bound(old_order.begin(), old_order.end(),
                                     *floor) -
                    old_order.begin())
              : old_order.size();
    ASSERT_EQ(rank, expected_rank) << "round " << round;
    std::vector<OrderKey> expected;
    for (const auto& [id, k] : live) expected.push_back(k);
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(idx.size(), expected.size());
    ASSERT_EQ(idx.ordered().size(), expected.size());
    const auto got = idx.ordered_keys();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(got[i].id, expected[i].id) << "round " << round << " rank "
                                           << i;
      ASSERT_EQ(got[i].deadline, expected[i].deadline);
      ASSERT_EQ(got[i].queue, expected[i].queue);
      ASSERT_EQ(got[i].key, expected[i].key);
      ASSERT_EQ(idx.ordered()[i],
                states[static_cast<std::size_t>(expected[i].id.value)]);
      ASSERT_EQ(idx.ordered_slots()[i], slot_of.at(expected[i].id.value));
    }
    old_order = expected;
    floor.reset();
  }
}

// The trigger heap beside an ordered set of (instant, id) pairs, under the
// deadline side's set/re-key/erase churn and the crossing side's re-arm,
// disarm to kNever and memo reads, with many tied instants: the same pops
// in the same order, the same minimum, current() equal to a memo map, and
// one heap item per armed entry (tombstones hold none), at every step.
// Each id sits at a slot that scrambles the id order, so ties must break
// by id, never by slot.
TEST(DeadlineHeapTest, MatchesOrderedSetOfPairs) {
  TriggerHeap heap;
  const auto slot = [](std::int64_t id) {
    return static_cast<Slot>(id * 37 % 100);
  };
  std::map<Slot, std::int64_t> id_at;
  for (std::int64_t id = 0; id < 100; ++id) id_at[slot(id)] = id;
  std::set<std::pair<SimTime, CoflowId>> set;
  std::map<std::int64_t, SimTime> at_of;
  std::map<std::int64_t, std::pair<std::uint64_t, int>> memo;
  std::mt19937_64 rng(99);
  SimTime now = 0;
  const auto disarm = [&](std::int64_t id) {
    if (const auto it = at_of.find(id); it != at_of.end()) {
      set.erase({it->second, CoflowId{id}});
      at_of.erase(it);
    }
  };
  for (int step = 0; step < 50000; ++step) {
    const auto id = static_cast<std::int64_t>(rng() % 100);
    const auto traj = static_cast<std::uint64_t>(rng() % 4);
    const auto queue = static_cast<int>(rng() % 3);
    const auto roll = rng() % 10;
    if (roll < 4) {
      const SimTime at = now + 1 + static_cast<SimTime>(rng() % 200);
      disarm(id);
      set.insert({at, CoflowId{id}});
      at_of[id] = at;
      memo[id] = {traj, queue};
      heap.set(slot(id), CoflowId{id}, at, traj, queue);
    } else if (roll < 5) {
      disarm(id);
      memo[id] = {traj, queue};
      heap.set(slot(id), CoflowId{id}, kNever, traj, queue);
    } else if (roll < 7) {
      disarm(id);
      memo.erase(id);
      heap.erase(slot(id));
    } else {
      now += static_cast<SimTime>(rng() % 40);
      std::vector<CoflowId> want;
      while (!set.empty() && set.begin()->first <= now) {
        want.push_back(set.begin()->second);
        at_of.erase(set.begin()->second.value);
        memo.erase(set.begin()->second.value);
        set.erase(set.begin());
      }
      std::vector<CoflowId> got;
      heap.pop_due(now, [&](Slot s) { got.push_back(CoflowId{id_at.at(s)}); });
      ASSERT_EQ(got, want) << "step " << step;
    }
    ASSERT_EQ(heap.size(), set.size()) << "step " << step;
    ASSERT_EQ(heap.next(), set.empty() ? kNever : set.begin()->first)
        << "step " << step;
    // Memo reads: one at the recorded pair when there is one, one at a
    // random pair.
    const auto probe = static_cast<std::int64_t>(rng() % 100);
    const auto it = memo.find(probe);
    if (it != memo.end()) {
      ASSERT_TRUE(heap.current(slot(probe), it->second.first,
                               it->second.second))
          << "step " << step;
    }
    const auto t = static_cast<std::uint64_t>(rng() % 4);
    const auto q = static_cast<int>(rng() % 3);
    ASSERT_EQ(heap.current(slot(probe), t, q),
              it != memo.end() && it->second == std::make_pair(t, q))
        << "step " << step;
  }
}

// ------------------------------------------------------------ TriggerHeap

TEST_F(OrderIndexTest, CrossingHeapSupersedesAndPrunes) {
  TriggerHeap heap;
  const CoflowId a = coflow(1)->id();
  const CoflowId b = coflow(2)->id();
  const Slot sa = slot(1);
  const Slot sb = slot(2);
  EXPECT_EQ(heap.next(), kNever);

  heap.set(sa, a, 100);
  heap.set(sb, b, 50);
  EXPECT_EQ(heap.next(), 50);

  heap.set(sb, b, 200);  // supersede: b's item moves in place
  EXPECT_EQ(heap.next(), 100);
  EXPECT_EQ(heap.size(), 2u);

  heap.set(sa, a, kNever);  // disarm: the tombstone keeps no heap item
  EXPECT_EQ(heap.next(), 200);
  EXPECT_EQ(heap.size(), 1u);
  EXPECT_TRUE(heap.current(sa, 0, 0));

  std::vector<Slot> popped;
  heap.pop_due(150, [&](Slot s) { popped.push_back(s); });
  EXPECT_TRUE(popped.empty());
  heap.pop_due(200, [&](Slot s) { popped.push_back(s); });
  ASSERT_EQ(popped.size(), 1u);
  EXPECT_EQ(popped[0], sb);
  EXPECT_EQ(heap.next(), kNever);
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_FALSE(heap.current(sb, 0, 0));  // a pop drops the memo too

  heap.set(sa, a, 10);
  heap.erase(sa);
  EXPECT_EQ(heap.next(), kNever);
  EXPECT_FALSE(heap.current(sa, 0, 0));
}

// ------------------------------------------------- satellite: median cache

TEST(FinishedMedianTest, CachedMedianTracksCompletions) {
  StateSet set;
  set.add(make_coflow(1, 0,
                      {{0, 1, 100}, {1, 2, 300}, {2, 3, 200}, {3, 0, 400}}));
  CoflowState& c = set.at(0);
  auto median_of = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const auto mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
  };
  std::vector<double> finished;
  for (int i = 0; i < 4; ++i) {
    auto& f = c.flows()[static_cast<std::size_t>(i)];
    f.set_rate(100, 0);
    c.on_flow_complete(f, seconds(i + 1));
    finished.push_back(f.size());
    EXPECT_DOUBLE_EQ(c.finished_length_median(), median_of(finished))
        << "after completion " << i;
    // Second read hits the cache; must be identical.
    EXPECT_DOUBLE_EQ(c.finished_length_median(), median_of(finished));
  }
}

// ---------------------------------------------------------------------------
// Property suite: the delta-driven schedule phase must be indistinguishable
// from the reference scheduler's full sort — in the maintained order, in the
// admission decisions, and in the end-to-end SimResults — across every
// churn source.

using testing::Loop;

struct ModeParam {
  std::uint64_t seed;
  const char* scheduler;  // "saath", "saath-fifo", "saath-total", "aalo"
  Loop loop;
};

void PrintTo(const ModeParam& p, std::ostream* os) {
  *os << p.scheduler << "/seed" << p.seed << "/" << testing::loop_name(p.loop);
}

/// Production (`reference` false) or the reference model for `name`.
std::unique_ptr<Scheduler> make_mode_scheduler(const std::string& name,
                                               bool reference) {
  if (name == "aalo") {
    if (reference) return std::make_unique<reference::ReferenceAalo>();
    return std::make_unique<SaathScheduler>(aalo_config());
  }
  SaathConfig cfg;
  if (name == "saath-fifo") {
    cfg.lcof = false;
    cfg.per_flow_threshold = false;
  } else if (name == "saath-total") {
    cfg.per_flow_threshold = false;
  }
  if (reference) return std::make_unique<reference::ReferenceSaath>(cfg);
  return std::make_unique<SaathScheduler>(cfg);
}

void expect_identical(const SimResult& a, const SimResult& b,
                      const char* label) {
  ASSERT_EQ(a.coflows.size(), b.coflows.size()) << label;
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    ASSERT_EQ(a.coflows[i].id, b.coflows[i].id) << label << " coflow " << i;
    ASSERT_EQ(a.coflows[i].finish, b.coflows[i].finish)
        << label << " coflow " << i;
    ASSERT_EQ(a.coflows[i].flow_fcts_seconds, b.coflows[i].flow_fcts_seconds)
        << label << " coflow " << i;
  }
}

class DeltaOrderProperty : public ::testing::TestWithParam<ModeParam> {
 protected:
  [[nodiscard]] trace::Trace make() const {
    return trace::synth_small_trace(10, 60, GetParam().seed);
  }
  [[nodiscard]] SimConfig config() const {
    SimConfig cfg;
    cfg.port_bandwidth = 1e6;
    cfg.delta = msec(20);
    return cfg;
  }
  /// Production (`reference` false) or the reference model over `t` with
  /// its dynamics and data gates, on the parameter's loop.
  [[nodiscard]] SimResult run(const trace::Trace& t, bool reference,
                              const SimConfig& cfg,
                              const std::vector<DynamicsEvent>& dynamics = {},
                              const std::map<std::int64_t, SimTime>& gates = {})
      const {
    auto sched = make_mode_scheduler(GetParam().scheduler, reference);
    return testing::run_on(GetParam().loop, reference,
                           testing::stream_of(t, dynamics, gates), *sched, cfg);
  }
};

// Production vs the reference's full sort: bit-identical SimResults across
// the whole mode matrix.
TEST_P(DeltaOrderProperty, IncrementalMatchesFullSortOracle) {
  const auto t = make();
  expect_identical(run(t, false, config()), run(t, true, config()),
                   GetParam().scheduler);
}

// Same, under heavy churn: compressed arrivals force deep queues, deadline
// expiries and constant contention shifts.
TEST_P(DeltaOrderProperty, IncrementalMatchesOracleUnderLoad) {
  auto t = make();
  t = t.scaled_arrivals(8.0);
  expect_identical(run(t, false, config()), run(t, true, config()),
                   GetParam().scheduler);
}

// Dynamics churn: node failures (restarts + §4.3 SRTF re-queueing, which
// can promote CoFlows) and stragglers (capacity changes that fence the
// admission replay) must not open any gap either.
TEST_P(DeltaOrderProperty, IncrementalMatchesOracleUnderDynamics) {
  const auto t = make();
  const std::vector<DynamicsEvent> dynamics = {
      {seconds(2), DynamicsEvent::Kind::kNodeFailure, 1, 1.0},
      {seconds(3), DynamicsEvent::Kind::kStragglerStart, 4, 0.3},
      {seconds(6), DynamicsEvent::Kind::kStragglerEnd, 4, 1.0},
      {seconds(7), DynamicsEvent::Kind::kNodeFailure, 2, 1.0},
  };
  expect_identical(run(t, false, config(), dynamics),
                   run(t, true, config(), dynamics), GetParam().scheduler);
}

// Data-availability flips (§4.3 pipelining) re-fence cached admissions.
TEST_P(DeltaOrderProperty, IncrementalMatchesOracleWithDataGates) {
  const auto t = make();
  std::map<std::int64_t, SimTime> gates;
  for (std::size_t i = 0; i < t.coflows.size(); i += 3) {
    gates[t.coflows[i].id.value] = t.coflows[i].arrival + seconds(1);
  }
  expect_identical(run(t, false, config(), {}, gates),
                   run(t, true, config(), {}, gates), GetParam().scheduler);
}

// Mid-epoch reallocation multiplies delta-carrying rounds; the replay
// fences must hold there too.
TEST_P(DeltaOrderProperty, IncrementalMatchesOracleWithReallocation) {
  const auto t = make();
  SimConfig cfg = config();
  cfg.reallocate_on_completion = true;
  expect_identical(run(t, false, cfg), run(t, true, cfg),
                   GetParam().scheduler);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, DeltaOrderProperty,
    ::testing::Values(
        ModeParam{7, "saath", Loop::kProduction},
        ModeParam{7, "saath", Loop::kEveryEpoch},
        ModeParam{7, "saath", Loop::kReference},
        ModeParam{21, "saath", Loop::kProduction},
        ModeParam{35, "saath", Loop::kProduction},
        ModeParam{7, "saath-fifo", Loop::kProduction},
        ModeParam{7, "saath-fifo", Loop::kEveryEpoch},
        ModeParam{7, "saath-total", Loop::kProduction},
        ModeParam{7, "aalo", Loop::kProduction},
        ModeParam{7, "aalo", Loop::kEveryEpoch},
        ModeParam{21, "aalo", Loop::kReference}),
    [](const ::testing::TestParamInfo<ModeParam>& pinfo) {
      std::string name = pinfo.param.scheduler;
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_seed" + std::to_string(pinfo.param.seed) + "_" +
             testing::loop_name(pinfo.param.loop);
    });

// ---------------------------------------------------------------------------
// White-box invariants of the delta path, checked after every engine round
// by an observer that FORWARDS the delta (so the inner scheduler actually
// runs incrementally, unlike the 4-arg observers which downgrade to full).

class DeltaForwardingObserver final : public Scheduler {
 public:
  explicit DeltaForwardingObserver(SaathConfig cfg) : inner_(cfg) {}
  std::string name() const override { return inner_.name(); }
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override {
    inner_.schedule(now, active, fabric, rates);
  }
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates,
                const SchedulerDelta& delta) override {
    inner_.schedule(now, active, fabric, rates, delta);
    if (check) check(now, active, fabric, inner_);
  }
  SimTime schedule_valid_until(
      SimTime now, std::span<CoflowState* const> active) const override {
    return inner_.schedule_valid_until(now, active);
  }
  void on_coflow_arrival(CoflowState& c, SimTime now) override {
    inner_.on_coflow_arrival(c, now);
    if (arrived) arrived(c, inner_);
  }
  void on_flow_complete(CoflowState& c, FlowState& f, SimTime now) override {
    inner_.on_flow_complete(c, f, now);
  }
  void on_coflow_complete(CoflowState& c, SimTime now) override {
    if (leaving) leaving(c, inner_);
    inner_.on_coflow_complete(c, now);
  }
  void on_coflow_quarantined(CoflowState& c, SimTime now) override {
    if (leaving) leaving(c, inner_);
    inner_.on_coflow_quarantined(c, now);
  }
  std::function<void(SimTime, std::span<CoflowState* const>, const Fabric&,
                     const SaathScheduler&)>
      check;
  /// Called after the arrival hook, and before a completion or quarantine
  /// hook, so both see the CoFlow's slot.
  std::function<void(const CoflowState&, const SaathScheduler&)> arrived;
  std::function<void(const CoflowState&, const SaathScheduler&)> leaving;
  SaathScheduler inner_;
};

// After every round, the maintained order must equal a from-scratch sort of
// the current state under the admission-order key — queue moves, expiry and
// contention shifts included. On the same runs, Saath's slot rule: a slot
// released between two rounds goes to no arrival before the next round's
// materialize (the cached order still names it), and is reused after it.
// The second input puts a completion and an arrival between the same two
// rounds on a 2-port fabric, over and over.
TEST(DeltaOrderWhiteBox, MaintainedOrderEqualsFromScratchSortEveryRound) {
  std::vector<CoflowSpec> pairs;
  for (int i = 0; i < 40; ++i) {
    // Each CoFlow needs 10 ms of a port and the next arrives 15 ms after
    // it, so each arrival lands in an epoch that saw a completion.
    pairs.push_back(
        make_coflow(i, msec(15) * i, {{i % 2, (i + 1) % 2, 10000}}));
  }
  const trace::Trace inputs[] = {trace::synth_small_trace(10, 60, 13),
                                 make_trace(2, pairs)};
  for (const trace::Trace& t : inputs) {
    SCOPED_TRACE(t.name);
    DeltaForwardingObserver obs{SaathConfig{}};
    int checked_rounds = 0;
    /// Slots released since the last round, and every slot ever released.
    std::set<Slot> released_since_round;
    std::set<Slot> released_ever;
    int arrivals_after_release = 0;
    int reused = 0;
    obs.leaving = [&](const CoflowState& c, const SaathScheduler& inner) {
      const Slot slot = inner.slot_of(c.id());
      ASSERT_NE(slot, kNoSlot);
      released_since_round.insert(slot);
      released_ever.insert(slot);
    };
    obs.arrived = [&](const CoflowState& c, const SaathScheduler& inner) {
      const Slot slot = inner.slot_of(c.id());
      ASSERT_NE(slot, kNoSlot);
      ASSERT_FALSE(released_since_round.contains(slot))
          << "slot " << slot << " reused before the next materialize";
      if (!released_since_round.empty()) ++arrivals_after_release;
      if (released_ever.contains(slot)) ++reused;
    };
    obs.check = [&](SimTime now, std::span<CoflowState* const> active,
                    const Fabric& fabric, const SaathScheduler& inner) {
      released_since_round.clear();
      const auto& idx = inner.order_index();
      ASSERT_EQ(idx.size(), active.size());
      // Expected keys from current state + the reference's batch k_c.
      std::vector<int> queue_of(active.size());
      for (std::size_t i = 0; i < active.size(); ++i) {
        queue_of[i] = active[i]->queue_index;
      }
      const auto contention =
          reference::batch_contention(active, fabric.num_ports(), queue_of);
      std::vector<OrderKey> expected;
      for (std::size_t i = 0; i < active.size(); ++i) {
        const CoflowState* c = active[i];
        OrderKey k;
        k.expired = c->deadline != kNever && c->deadline <= now;
        k.deadline = c->deadline;
        k.queue = c->queue_index;
        k.key = contention[i];
        k.arrival = c->arrival();
        k.id = c->id();
        expected.push_back(k);
      }
      std::sort(expected.begin(), expected.end());
      const auto got = idx.ordered_keys();
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(got[i].id, expected[i].id)
            << "rank " << i << " at t=" << now;
        ASSERT_EQ(got[i].queue, expected[i].queue) << "rank " << i;
        ASSERT_EQ(got[i].key, expected[i].key) << "rank " << i;
        ASSERT_EQ(got[i].expired, expected[i].expired) << "rank " << i;
        ASSERT_EQ(idx.ordered_slots()[i], inner.slot_of(got[i].id))
            << "rank " << i;
      }
      ++checked_rounds;
    };
    SimConfig cfg;
    cfg.port_bandwidth = 1e6;
    cfg.delta = msec(20);
    const auto result = simulate(t, obs, cfg);
    EXPECT_EQ(result.coflows.size(), t.coflows.size());
    EXPECT_GT(checked_rounds, 2);  // the delta path actually ran
    EXPECT_GT(arrivals_after_release, 0);
    EXPECT_GT(reused, 0);
  }
}

// The O(1) valid-until (crossing-heap top + deadline head) must never be
// later than the reference's full O(F·W) scan — later would skip a real
// trigger and diverge. Every per-flow preset: saath and saath-an-pf-fifo,
// on runs whose backfill rates flows, so the crossings folded in by
// admission and by work conservation are both checked, and greedy
// admission under per-flow thresholds, whose crossing comes from a walk
// over the flows instead. Each run's results must also carry the digest of
// the reference Saath's on the same trace.
TEST(DeltaOrderWhiteBox, ValidUntilNeverLaterThanScan) {
  SimConfig cfg;
  cfg.port_bandwidth = 1e6;
  cfg.delta = msec(20);
  SaathConfig an_pf_fifo;
  an_pf_fifo.lcof = false;
  SaathConfig greedy_pf;
  greedy_pf.all_or_none = false;
  const std::pair<const char*, SaathConfig> presets[] = {
      {"saath", SaathConfig{}},
      {"saath-an-pf-fifo", an_pf_fifo},
      {"greedy+pf", greedy_pf},
  };
  for (const auto& [preset, sc] : presets) {
    for (const std::uint64_t seed : {19u, 3u, 11u}) {
      SCOPED_TRACE(::testing::Message() << preset << " seed " << seed);
      DeltaForwardingObserver obs{sc};
      const reference::ReferenceSaath scan_twin(sc);  // the scan is stateless
      int compared = 0;
      obs.check = [&](SimTime now, std::span<CoflowState* const> active,
                      const Fabric& fabric, const SaathScheduler& inner) {
        (void)fabric;
        const SimTime fast = inner.schedule_valid_until(now, active);
        const SimTime scan = scan_twin.schedule_valid_until(now, active);
        ASSERT_LE(fast, scan) << "at t=" << now;
        ++compared;
      };
      const auto t = trace::synth_small_trace(8, 40, seed);
      const SimResult got = simulate(t, obs, cfg);
      EXPECT_GT(compared, 2);
      if (sc.all_or_none) {
        EXPECT_GT(obs.inner_.phase_stats().backfill_allocs, 0);
      }
      reference::ReferenceSaath ref(sc);
      EXPECT_EQ(replay::result_digest_hex(got),
                replay::result_digest_hex(simulate(t, ref, cfg)));
    }
  }
}

// Schedule-phase counts, pinned exactly. A crossing instant that moves
// earlier changes which CoFlows are candidates and how much of the admission
// prefix replays, but not the results, so no digest sees it; these counts
// do.
struct PhasePin {
  const char* preset;
  std::int64_t rounds;
  std::int64_t delta_rounds;
  std::int64_t replayed_ranks;
  std::int64_t candidates;
  std::int64_t backfill_allocs;
};

void expect_phase_counts(const Scheduler& sched, const PhasePin& pin) {
  const auto& st = dynamic_cast<const SaathScheduler&>(sched).phase_stats();
  EXPECT_EQ(st.rounds, pin.rounds);
  EXPECT_EQ(st.delta_rounds, pin.delta_rounds);
  EXPECT_EQ(st.replayed_ranks, pin.replayed_ranks);
  EXPECT_EQ(st.candidates, pin.candidates);
  EXPECT_EQ(st.backfill_allocs, pin.backfill_allocs);
}

trace::Trace fb_150_ports(int coflows) {
  trace::SynthConfig tcfg;
  tcfg.num_ports = 150;
  tcfg.num_coflows = coflows;
  tcfg.seed = 7;
  return trace::synth_fb_trace(tcfg);
}

// Production Saath on the engine over the FB-like 150-port trace.
TEST(DeltaOrderWhiteBox, EnginePhaseCountsPinned) {
  const PhasePin pins[] = {
      {"saath", 4169, 4168, 65441, 431, 73504},
      {"saath-an-pf-fifo", 4089, 4088, 60067, 431, 71415},
  };
  const auto t = fb_150_ports(200);
  SimConfig cfg;
  cfg.port_bandwidth = gbps(1);
  cfg.delta = msec(8);
  for (const PhasePin& pin : pins) {
    SCOPED_TRACE(pin.preset);
    const auto sched = make_scheduler(pin.preset);
    (void)simulate(t, *sched, cfg);
    expect_phase_counts(*sched, pin);
  }
}

// The sched_order bench's steady-churn snapshot: every CoFlow of the
// 150-port trace live at once, one stream, and each 8 ms round followed by
// one mid-flight flow kill delivered the engine way (hook + requeue mark).
// Many missed CoFlows get the same backfill rates round after round, so
// their crossing entries stand on the trajectory memo; re-deriving them at
// the later `now` moves their guarded instants and, with them, the replay.
TEST(DeltaOrderWhiteBox, SnapshotPhaseCountsPinned) {
  const PhasePin pins[] = {
      {"saath", 1200, 1199, 150438, 15899, 143781},
      {"saath-an-pf-fifo", 1200, 1199, 161020, 9971, 187702},
  };
  const auto t = fb_150_ports(500);
  for (const PhasePin& pin : pins) {
    SCOPED_TRACE(pin.preset);
    StateSet set;
    for (const CoflowSpec& spec : t.coflows) set.add(spec);
    const auto sched = make_scheduler(pin.preset);
    set.announce(*sched);
    Fabric fabric(150, gbps(1));
    RateAssignment rates(150);
    SchedulerDelta delta;
    delta.stream_id = 900001;
    SimTime now = 0;
    std::size_t victim = 0;
    for (int round = 0; round < 1200; ++round) {
      fabric.reset();
      rates.begin_epoch(now);
      sched->schedule(now, set.active(), fabric, rates, delta);
      delta.clear_marks();
      now += msec(8);
      for (std::size_t probe = 0; probe < set.size(); ++probe) {
        const std::size_t i = victim++ % set.size();
        CoflowState& c = set.at(i);
        if (c.unfinished_flows() < 2) continue;
        std::size_t flow = 0;
        while (c.flows()[flow].finished()) ++flow;
        rates.flow_stopped(c.flows()[flow]);
        set.complete(*sched, i, flow, now);
        delta.mark_requeue(&c);
        break;
      }
    }
    expect_phase_counts(*sched, pin);
  }
}

// The machinery must actually engage: delta rounds dominate, ranks get
// replayed, and the quiescent skip still fires on a sparse workload.
TEST(DeltaOrderWhiteBox, DeltaPathEngagesAndReplays) {
  const auto t = trace::synth_small_trace(8, 40, 3);
  SaathScheduler sched;
  SimConfig cfg;
  cfg.port_bandwidth = 1e6;
  cfg.delta = msec(20);
  Engine engine(t, sched, cfg);
  (void)engine.run();
  const auto& st = sched.phase_stats();
  EXPECT_GT(st.delta_rounds, 0);
  EXPECT_GE(st.rounds, st.delta_rounds);
  // All rounds except the stream's first should be delta rounds.
  EXPECT_GE(st.delta_rounds, st.rounds - 2);
  EXPECT_GT(st.replayed_ranks, 0);
}

// A scheduler reused across two engines sees a new delta stream: its first
// round takes every CoFlow as a candidate, and nothing of the dead run
// (which left through the completion hooks) reaches the second run's
// results.
TEST(DeltaOrderWhiteBox, SchedulerReuseAcrossEnginesReprimes) {
  const auto t1 = trace::synth_small_trace(8, 30, 5);
  const auto t2 = trace::synth_small_trace(8, 30, 6);
  SimConfig cfg;
  cfg.port_bandwidth = 1e6;
  cfg.delta = msec(20);
  SaathScheduler reused;
  const auto r1 = [&] {
    Engine e(t1, reused, cfg);
    return e.run();
  }();
  const auto r2 = [&] {
    Engine e(t2, reused, cfg);
    return e.run();
  }();
  SaathScheduler fresh;
  const auto r2_fresh = simulate(t2, fresh, cfg);
  expect_identical(r2, r2_fresh, "reused-vs-fresh");
  EXPECT_EQ(r1.coflows.size(), t1.coflows.size());
}

// Direct (4-arg) callers that announce their CoFlows have no stream, so
// every round takes every CoFlow as a candidate: same rates as the
// reference Saath every round, and no delta round.
TEST(DeltaOrderWhiteBox, DirectDriversTakeFullPath) {
  StateSet set;
  set.add(make_coflow(1, 0, {{0, 1, 1000}, {1, 2, 1000}}));
  set.add(make_coflow(2, 0, {{0, 2, 500}}));
  set.add(make_coflow(3, 0, {{3, 4, 800}}));
  SaathScheduler inc;
  set.announce(inc);
  reference::ReferenceSaath oracle;
  Fabric f1(6, 100.0);
  Fabric f2(6, 100.0);
  for (int round = 0; round < 5; ++round) {
    f1.reset();
    f2.reset();
    inc.schedule(seconds(round), set.active(), f1);
    std::vector<Rate> inc_rates;
    for (std::size_t i = 0; i < set.size(); ++i) {
      for (const auto& fl : set.at(i).flows()) inc_rates.push_back(fl.rate());
    }
    oracle.schedule(seconds(round), set.active(), f2);
    std::size_t k = 0;
    for (std::size_t i = 0; i < set.size(); ++i) {
      for (const auto& fl : set.at(i).flows()) {
        EXPECT_EQ(fl.rate(), inc_rates[k++]) << "round " << round;
      }
    }
  }
  EXPECT_EQ(inc.phase_stats().delta_rounds, 0);
}

}  // namespace
}  // namespace saath
