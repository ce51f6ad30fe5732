// Event-driven core invariants: the completion heap (one entry per flow,
// kept in order across rate changes, restarts and capacity changes, stale
// entries dropped at the top) and the bit-identity of SimResults between
// the heap-based advance phase and the scan-based oracle
// (`SimConfig::event_driven = false`).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sched/factory.h"
#include "sched/saath.h"
#include "sim/completion_heap.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/synth.h"

namespace saath {
namespace {

using testing::make_coflow;
using testing::make_trace;
using testing::toy_config;

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.coflows.size(), b.coflows.size());
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    const auto& ca = a.coflows[i];
    const auto& cb = b.coflows[i];
    EXPECT_EQ(ca.id, cb.id);
    EXPECT_EQ(ca.arrival, cb.arrival);
    EXPECT_EQ(ca.finish, cb.finish) << "coflow " << ca.id.value;
    EXPECT_EQ(ca.total_bytes, cb.total_bytes);
    // Bit-identical: flow FCTs are doubles derived from µs finish instants,
    // compared with operator== on purpose.
    EXPECT_EQ(ca.flow_fcts_seconds, cb.flow_fcts_seconds)
        << "coflow " << ca.id.value;
  }
}

// ---------------------------------------------------------------------------
// CompletionHeap unit tests.

TEST(CompletionHeap, TracksPredictedFinish) {
  CoflowState c(make_coflow(0, 0, {{0, 1, 1000}, {0, 2, 500}}), FlowId{0});
  CompletionHeap heap;
  c.flows()[0].set_rate(100.0, 0);  // finishes at 10 s
  c.flows()[1].set_rate(100.0, 0);  // finishes at 5 s
  heap.push(&c.flows()[0], &c);
  heap.push(&c.flows()[1], &c);
  EXPECT_EQ(heap.next_time(), seconds(5));
}

TEST(CompletionHeap, RateChangeInvalidatesEvent) {
  CoflowState c(make_coflow(0, 0, {{0, 1, 1000}}), FlowId{0});
  CompletionHeap heap;
  auto& f = c.flows()[0];
  f.set_rate(100.0, 0);
  heap.push(&f, &c);
  EXPECT_EQ(heap.next_time(), seconds(10));
  // Faster rate at 2 s: 800 left at 400 B/s -> done at 4 s. The stale
  // 10 s event must be ignored once the new one is queued.
  f.set_rate(400.0, seconds(2));
  heap.push(&f, &c);
  EXPECT_EQ(heap.next_time(), seconds(4));
  // Rate withdrawn entirely: no valid completion remains.
  f.set_rate(0.0, seconds(3));
  heap.push(&f, &c);
  EXPECT_EQ(heap.next_time(), kNever);
}

TEST(CompletionHeap, SameRateReassignmentDoesNotDuplicate) {
  CoflowState c(make_coflow(0, 0, {{0, 1, 1000}}), FlowId{0});
  CompletionHeap heap;
  auto& f = c.flows()[0];
  f.set_rate(100.0, 0);
  heap.push(&f, &c);
  const auto size = heap.size();
  // A quiescent recompute hands the same rate back: exact no-op, no event.
  f.set_rate(100.0, seconds(1));
  heap.push(&f, &c);
  EXPECT_EQ(heap.size(), size);
  EXPECT_EQ(heap.next_time(), seconds(10));
}

TEST(CompletionHeap, ZeroThenSameRateRestoresEvent) {
  CoflowState c(make_coflow(0, 0, {{0, 1, 1000}}), FlowId{0});
  CompletionHeap heap;
  auto& f = c.flows()[0];
  f.set_rate(100.0, 0);
  heap.push(&f, &c);
  // Epoch blank slate at 2 s followed by the scheduler re-assigning the
  // standing rate: the original trajectory (and its queued event) revive.
  f.set_rate(0.0, seconds(2));
  f.set_rate(100.0, seconds(2));
  heap.push(&f, &c);
  EXPECT_EQ(f.predicted_finish(), seconds(10));
  EXPECT_EQ(heap.next_time(), seconds(10));
}

TEST(CompletionHeap, RestartInvalidatesEvent) {
  CoflowState c(make_coflow(0, 0, {{0, 1, 1000}, {2, 3, 1000}}), FlowId{0});
  CompletionHeap heap;
  for (auto& f : c.flows()) {
    f.set_rate(100.0, 0);
    heap.push(&f, &c);
  }
  // Node failure on port 0 at 4 s: that flow's event must die with its
  // progress; the other flow's event stands.
  c.restart_flows_on_port(0, seconds(4));
  EXPECT_EQ(heap.next_time(), seconds(10));
  heap.pop_due(seconds(10), [&](CoflowState&, FlowState& f) {
    EXPECT_EQ(f.src(), 2);  // only the untouched flow surfaces
    c.on_flow_complete(f, seconds(10));
  });
  EXPECT_EQ(heap.next_time(), kNever);
}

TEST(CompletionHeap, PopDueHarvestsBatchInTimeOrder) {
  CoflowState c(make_coflow(0, 0, {{0, 1, 100}, {2, 3, 200}, {4, 5, 900}}),
                FlowId{0});
  CompletionHeap heap;
  for (auto& f : c.flows()) {
    f.set_rate(100.0, 0);
    heap.push(&f, &c);
  }
  std::vector<SimTime> seen;
  heap.pop_due(seconds(2), [&](CoflowState& owner, FlowState& f) {
    seen.push_back(f.predicted_finish());
    owner.on_flow_complete(f, f.predicted_finish());
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], seconds(1));
  EXPECT_EQ(seen[1], seconds(2));
  EXPECT_EQ(heap.next_time(), seconds(9));
}

TEST(CompletionHeap, HoldsOneEntryPerFlow) {
  CoflowState c(make_coflow(0, 0, {{0, 1, 1000000}}), FlowId{0});
  CompletionHeap heap;
  auto& f = c.flows()[0];
  for (int i = 0; i < 100; ++i) {
    f.set_rate(100.0 + i, msec(i));
    ASSERT_TRUE(heap.push(&f, &c));
  }
  // Every re-rate moved the flow's one entry instead of adding another.
  EXPECT_EQ(heap.size(), 1u);
  EXPECT_EQ(heap.next_time(), f.predicted_finish());
}

TEST(CompletionHeap, SlowerRateMovesEntryLater) {
  CoflowState c(make_coflow(0, 0, {{0, 1, 1000}, {2, 3, 2000}}), FlowId{0});
  CompletionHeap heap;
  auto& early = c.flows()[0];
  auto& late = c.flows()[1];
  early.set_rate(100.0, 0);  // 10 s
  late.set_rate(100.0, 0);   // 20 s
  heap.push(&early, &c);
  heap.push(&late, &c);
  ASSERT_EQ(heap.next_time(), seconds(10));
  // 900 bytes left at 10 B/s from 1 s: the entry sinks below the other.
  early.set_rate(10.0, seconds(1));
  heap.push(&early, &c);
  EXPECT_EQ(heap.size(), 2u);
  EXPECT_EQ(heap.next_time(), seconds(20));
  std::vector<SimTime> seen;
  heap.pop_due(seconds(100), [&](CoflowState&, FlowState& f) {
    seen.push_back(f.predicted_finish());
  });
  EXPECT_EQ(seen, (std::vector<SimTime>{seconds(20), seconds(91)}));
}

TEST(CompletionHeap, SameInstantPopsInFlowIdOrder) {
  CoflowState c(make_coflow(0, 0,
                            {{0, 1, 1000}, {1, 2, 1000}, {2, 3, 1000},
                             {3, 4, 1000}, {4, 5, 1000}}),
                FlowId{0});
  CompletionHeap heap;
  for (auto& f : c.flows()) f.set_rate(100.0, 0);  // all at 10 s
  for (auto it = c.flows().rbegin(); it != c.flows().rend(); ++it) {
    heap.push(&*it, &c);
  }
  std::vector<std::int64_t> ids;
  heap.pop_due(seconds(10), [&](CoflowState&, FlowState& f) {
    ids.push_back(f.id().value);
  });
  EXPECT_EQ(ids, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
}

TEST(CompletionHeap, EraseDropsOneFlowAndKeepsOrder) {
  CoflowState c(make_coflow(0, 0,
                            {{0, 1, 100}, {1, 2, 200}, {2, 3, 300},
                             {3, 4, 400}}),
                FlowId{0});
  CompletionHeap heap;
  for (auto& f : c.flows()) {
    f.set_rate(100.0, 0);  // 1, 2, 3, 4 s
    heap.push(&f, &c);
  }
  // The abandon path: the flow's entry goes, the rest pop in order.
  heap.erase(c.flows()[1]);
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_EQ(c.flows()[1].heap_pos(), FlowState::kNoHeapPos);
  std::vector<SimTime> seen;
  heap.pop_due(seconds(10), [&](CoflowState&, FlowState& f) {
    seen.push_back(f.predicted_finish());
  });
  EXPECT_EQ(seen, (std::vector<SimTime>{seconds(1), seconds(3), seconds(4)}));
  EXPECT_EQ(heap.size(), 0u);
}

// ---------------------------------------------------------------------------
// Event-driven vs oracle bit-identity, across schedulers and traces.

struct ParityParam {
  std::uint64_t seed;
  const char* scheduler;
};

void PrintTo(const ParityParam& p, std::ostream* os) {
  *os << p.scheduler << "/seed" << p.seed;
}

class EventOracleParity : public ::testing::TestWithParam<ParityParam> {
 protected:
  [[nodiscard]] static SimConfig config(bool event_driven) {
    SimConfig cfg;
    cfg.port_bandwidth = 1e6;
    cfg.delta = msec(20);
    cfg.event_driven = event_driven;
    return cfg;
  }
};

TEST_P(EventOracleParity, IdenticalResultsOnSynthTrace) {
  const auto t = trace::synth_small_trace(8, 40, GetParam().seed);
  auto s1 = make_scheduler(GetParam().scheduler);
  auto s2 = make_scheduler(GetParam().scheduler);
  const auto r_event = simulate(t, *s1, config(true));
  const auto r_oracle = simulate(t, *s2, config(false));
  expect_identical(r_event, r_oracle);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, EventOracleParity,
    ::testing::Values(ParityParam{1, "saath"}, ParityParam{2, "saath"},
                      ParityParam{3, "saath"}, ParityParam{1, "aalo"},
                      ParityParam{2, "aalo"}, ParityParam{1, "sebf"},
                      ParityParam{2, "sebf"}, ParityParam{1, "uc-tcp"},
                      ParityParam{1, "srtf"}, ParityParam{1, "scf"},
                      ParityParam{1, "lwtf"}),
    [](const ::testing::TestParamInfo<ParityParam>& pinfo) {
      std::string name = pinfo.param.scheduler;
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_seed" + std::to_string(pinfo.param.seed);
    });

/// Builds an engine loaded with the full §4.3 churn menu: node failures,
/// straggler windows, delayed data availability, and a DAG-style injection
/// on the first completion.
[[nodiscard]] SimResult run_churn(bool event_driven, bool reallocate) {
  const auto t = trace::synth_small_trace(8, 30, 7);
  SaathScheduler sched;
  SimConfig cfg;
  cfg.port_bandwidth = 1e6;
  cfg.delta = msec(20);
  cfg.event_driven = event_driven;
  cfg.reallocate_on_completion = reallocate;
  Engine engine(t, sched, cfg);
  // Deliberately inserted out of order: run() sorts lazily.
  engine.add_dynamics_event(
      {seconds(4), DynamicsEvent::Kind::kStragglerStart, 2, 0.3});
  engine.add_dynamics_event(
      {seconds(2), DynamicsEvent::Kind::kNodeFailure, 1, 1.0});
  engine.add_dynamics_event(
      {seconds(6), DynamicsEvent::Kind::kStragglerEnd, 2, 1.0});
  engine.add_dynamics_event(
      {seconds(8), DynamicsEvent::Kind::kNodeFailure, 3, 1.0});
  engine.set_data_available_at(t.coflows[2].id, seconds(3));
  bool injected = false;
  engine.set_completion_callback(
      [&injected](const CoflowRecord& rec, SimTime now, Engine& eng) {
        if (!injected) {
          injected = true;
          eng.inject_coflow(testing::make_coflow(
              900, now + msec(100), {{0, 5, 40'000}, {1, 6, 40'000}}));
        }
        (void)rec;
      });
  return engine.run();
}

TEST(EventOracleParity, IdenticalUnderDynamicsAndInjection) {
  expect_identical(run_churn(true, false), run_churn(false, false));
}

TEST(EventOracleParity, IdenticalWithReallocateOnCompletion) {
  expect_identical(run_churn(true, true), run_churn(false, true));
}

TEST(EventOracleParity, ZeroByteFlowCompletesInBothModes) {
  // A zero-byte flow is born finished; its completion event must exist
  // before any rate touches it, in both modes.
  auto spec = make_coflow(0, seconds(1), {{0, 1, 1000}});
  spec.flows.push_back({2, 3, 0});
  auto t = make_trace(4, {spec});
  for (const bool event_driven : {true, false}) {
    auto sched = make_scheduler("uc-tcp");
    SimConfig cfg = toy_config();
    cfg.event_driven = event_driven;
    const auto result = simulate(t, *sched, cfg);
    ASSERT_EQ(result.coflows.size(), 1u);
    // The zero-byte flow's FCT is 0 (finished at admission).
    EXPECT_DOUBLE_EQ(result.coflows[0].flow_fcts_seconds[1], 0.0);
    EXPECT_NEAR(result.coflows[0].cct_seconds(), 10.0, 0.01);
  }
}

TEST(EventOracleParity, RestartedZeroByteFlowStillCompletes) {
  // A node failure restarts a not-yet-harvested zero-byte flow in the same
  // engine iteration that admitted it: the restart invalidates the queued
  // completion event, and with all-or-none blocking (no work conservation)
  // no schedule re-rates the flow — the engine must re-queue it itself or
  // event-driven mode diverges from the oracle.
  auto blocker = make_coflow(0, 0, {{0, 1, 1000}});
  auto victim = make_coflow(1, seconds(1), {{0, 1, 2000}});
  victim.flows.push_back({2, 3, 0});
  const auto t = make_trace(4, {blocker, victim});
  SaathConfig scfg;
  scfg.work_conservation = false;
  scfg.deadline_factor = 0;
  std::vector<SimResult> results;
  for (const bool event_driven : {true, false}) {
    SaathScheduler sched(scfg);
    SimConfig cfg = toy_config();
    cfg.event_driven = event_driven;
    Engine engine(t, sched, cfg);
    engine.add_dynamics_event(
        {msec(950), DynamicsEvent::Kind::kNodeFailure, 2, 1.0});
    results.push_back(engine.run());
  }
  expect_identical(results[0], results[1]);
  // The zero-byte flow finishes at its (restart-preserved) instant, not at
  // whenever the coflow is finally admitted.
  EXPECT_DOUBLE_EQ(results[0].coflows[1].flow_fcts_seconds[1], 0.0);
}

TEST(EventOracleParity, QuiescentSkipAndHeapCompose) {
  // All four on/off combinations of (skip, event_driven) agree bit-exactly.
  const auto t = trace::synth_small_trace(8, 30, 13);
  std::vector<SimResult> results;
  for (const bool skip : {true, false}) {
    for (const bool event_driven : {true, false}) {
      SaathScheduler sched;
      SimConfig cfg;
      cfg.port_bandwidth = 1e6;
      cfg.delta = msec(20);
      cfg.skip_quiescent_epochs = skip;
      cfg.event_driven = event_driven;
      results.push_back(simulate(t, sched, cfg));
    }
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    expect_identical(results[0], results[i]);
  }
}

TEST(EngineStats, CountsCompletionsAndPhases) {
  const auto t = trace::synth_small_trace(6, 20, 5);
  SaathScheduler sched;
  SimConfig cfg;
  cfg.port_bandwidth = 1e6;
  cfg.delta = msec(20);
  Engine engine(t, sched, cfg);
  const auto result = engine.run();
  std::size_t flows = 0;
  for (const auto& c : result.coflows) flows += c.flow_fcts_seconds.size();
  EXPECT_EQ(engine.stats().flow_completions, static_cast<std::int64_t>(flows));
  EXPECT_GT(engine.stats().schedule_ns, 0);
  EXPECT_GT(engine.stats().advance_ns, 0);
  EXPECT_GT(engine.stats().heap_pushes, 0);
  EXPECT_GE(engine.stats().ingest_ns, 0);
  EXPECT_GT(engine.stats().run_wall_ns, 0);
}

}  // namespace
}  // namespace saath
