// The delta-driven schedule phase: OrderIndex / QueueCrossingHeap unit
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
#include <string>
#include <vector>

#include "reference/reference.h"
#include "sched/aalo.h"
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
  StateSet set_;
};

TEST_F(OrderIndexTest, MaintainsSortedOrderAcrossChurn) {
  OrderIndex idx;
  auto* a = coflow(1);
  auto* b = coflow(2);
  auto* c = coflow(3);
  idx.insert(a, key(false, kNever, 2, 0, 0, 1));
  idx.insert(b, key(false, kNever, 0, 0, 0, 2));
  idx.insert(c, key(false, kNever, 1, 0, 0, 3));
  idx.materialize();
  EXPECT_EQ(idx.ordered()[0], b);
  EXPECT_EQ(idx.ordered()[1], c);
  EXPECT_EQ(idx.ordered()[2], a);

  // Queue move: a jumps to the front.
  idx.update(CoflowId{1}, key(false, kNever, 0, -1, 0, 1));
  EXPECT_EQ(idx.materialize(), 0u);  // dirtied at the new front
  EXPECT_EQ(idx.ordered()[0], a);

  // Deadline expiry: c overtakes everyone.
  idx.update(CoflowId{3}, key(true, 5, 1, 0, 0, 3));
  EXPECT_EQ(idx.materialize(), 0u);
  EXPECT_EQ(idx.ordered()[0], c);

  idx.erase(CoflowId{3});
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
    idx.insert(states.back(), key(false, kNever, 0, i, 0, i));
  }
  EXPECT_EQ(idx.materialize(), 0u);  // first build: everything new
  // Clean round: the whole order (and any cached decisions) stands.
  EXPECT_EQ(idx.materialize(), 8u);

  // Dirty only rank 6 (key 6 -> 60): ranks 0..5 are reused verbatim.
  idx.update(CoflowId{6}, key(false, kNever, 0, 60, 0, 6));
  EXPECT_EQ(idx.materialize(), 6u);
  EXPECT_EQ(idx.ordered()[7], states[6]);

  // touch() fences without moving: same order, prefix ends at the rank.
  idx.touch(CoflowId{3});
  EXPECT_EQ(idx.materialize(), 3u);
  EXPECT_EQ(idx.ordered()[3], states[3]);

  // Erase the front: rank 0 dirtied.
  idx.erase(CoflowId{0});
  EXPECT_EQ(idx.materialize(), 0u);
  ASSERT_EQ(idx.ordered().size(), 7u);
  EXPECT_EQ(idx.ordered()[0], states[1]);
}

TEST_F(OrderIndexTest, UpdateWithSameKeyIsCleanAndRebuildSeedsClean) {
  OrderIndex idx;
  auto* a = coflow(1);
  auto* b = coflow(2);
  idx.insert(a, key(false, kNever, 0, 1, 0, 1));
  idx.insert(b, key(false, kNever, 0, 2, 0, 2));
  idx.materialize();
  idx.update(CoflowId{2}, key(false, kNever, 0, 2, 0, 2));  // no-op
  EXPECT_EQ(idx.materialize(), 2u);

  std::vector<std::pair<OrderKey, CoflowState*>> sorted = {
      {key(false, kNever, 0, 1, 0, 2), b}, {key(false, kNever, 0, 5, 0, 1), a}};
  idx.rebuild(sorted);
  EXPECT_EQ(idx.materialize(), 2u);  // seeded clean
  EXPECT_EQ(idx.ordered()[0], b);
  EXPECT_EQ(idx.key_of(CoflowId{1}).key, 5);
  EXPECT_EQ(idx.state_of(CoflowId{2}), b);
}

// --------------------------------------------------------- QueueCrossingHeap

TEST_F(OrderIndexTest, CrossingHeapSupersedesAndPrunes) {
  QueueCrossingHeap heap;
  auto* a = coflow(1);
  auto* b = coflow(2);
  EXPECT_EQ(heap.next(), kNever);

  heap.program(a, 100);
  heap.program(b, 50);
  EXPECT_EQ(heap.next(), 50);

  heap.program(b, 200);  // supersede: the 50 entry is stale
  EXPECT_EQ(heap.next(), 100);

  heap.program(a, kNever);  // cancel
  EXPECT_EQ(heap.next(), 200);

  std::vector<CoflowState*> popped;
  heap.pop_due(150, [&](CoflowState* c) { popped.push_back(c); });
  EXPECT_TRUE(popped.empty());
  heap.pop_due(200, [&](CoflowState* c) { popped.push_back(c); });
  ASSERT_EQ(popped.size(), 1u);
  EXPECT_EQ(popped[0], b);
  EXPECT_EQ(heap.next(), kNever);
  EXPECT_EQ(heap.programmed(), 0u);

  heap.program(a, 10);
  heap.erase(a->id());
  EXPECT_EQ(heap.next(), kNever);
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
    return std::make_unique<AaloScheduler>();
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
  }
  void on_flow_complete(CoflowState& c, FlowState& f, SimTime now) override {
    inner_.on_flow_complete(c, f, now);
  }
  void on_coflow_complete(CoflowState& c, SimTime now) override {
    inner_.on_coflow_complete(c, now);
  }
  std::function<void(SimTime, std::span<CoflowState* const>, const Fabric&,
                     const SaathScheduler&)>
      check;
  SaathScheduler inner_;
};

// After every round, the maintained order must equal a from-scratch sort of
// the current state under the full-path key — queue moves, expiry and
// contention shifts included.
TEST(DeltaOrderWhiteBox, MaintainedOrderEqualsFromScratchSortEveryRound) {
  const auto t = trace::synth_small_trace(10, 60, 13);
  DeltaForwardingObserver obs{SaathConfig{}};
  int checked_rounds = 0;
  obs.check = [&](SimTime now, std::span<CoflowState* const> active,
                  const Fabric& fabric, const SaathScheduler& inner) {
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
      ASSERT_EQ(got[i].id, expected[i].id) << "rank " << i << " at t=" << now;
      ASSERT_EQ(got[i].queue, expected[i].queue) << "rank " << i;
      ASSERT_EQ(got[i].key, expected[i].key) << "rank " << i;
      ASSERT_EQ(got[i].expired, expected[i].expired) << "rank " << i;
    }
    ++checked_rounds;
  };
  SimConfig cfg;
  cfg.port_bandwidth = 1e6;
  cfg.delta = msec(20);
  const auto result = simulate(t, obs, cfg);
  EXPECT_EQ(result.coflows.size(), t.coflows.size());
  EXPECT_GT(checked_rounds, 2);  // the delta path actually ran
}

// The O(1) valid-until (crossing-heap top + deadline head) must never be
// later than the reference's full O(F·W) scan — later would skip a real
// trigger and diverge.
TEST(DeltaOrderWhiteBox, ValidUntilNeverLaterThanScan) {
  const auto t = trace::synth_small_trace(8, 40, 19);
  DeltaForwardingObserver obs{SaathConfig{}};
  int compared = 0;
  obs.check = [&](SimTime now, std::span<CoflowState* const> active,
                  const Fabric& fabric, const SaathScheduler& inner) {
    (void)fabric;
    const reference::ReferenceSaath scan_twin;  // the scan is stateless
    const SimTime fast = inner.schedule_valid_until(now, active);
    const SimTime scan = scan_twin.schedule_valid_until(now, active);
    ASSERT_LE(fast, scan) << "at t=" << now;
    ++compared;
  };
  SimConfig cfg;
  cfg.port_bandwidth = 1e6;
  cfg.delta = msec(20);
  (void)simulate(t, obs, cfg);
  EXPECT_GT(compared, 2);
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
  // All rounds except the prime should be delta rounds.
  EXPECT_GE(st.delta_rounds, st.rounds - 2);
  EXPECT_GT(st.replayed_ranks, 0);
}

// A scheduler reused across two engines sees a new delta stream and must
// re-prime instead of trusting pointers into the dead run.
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

// Direct (4-arg) callers must keep getting the full route: same rates as
// the reference Saath every round, and the repeated-snapshot probe keeps
// the spatial sync O(1) without changing contention values.
TEST(DeltaOrderWhiteBox, DirectDriversTakeFullPath) {
  StateSet set;
  set.add(make_coflow(1, 0, {{0, 1, 1000}, {1, 2, 1000}}));
  set.add(make_coflow(2, 0, {{0, 2, 500}}));
  set.add(make_coflow(3, 0, {{3, 4, 800}}));
  SaathScheduler inc;
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
