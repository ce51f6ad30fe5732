#include <gtest/gtest.h>

#include <cmath>

#include "reference/engine.h"
#include "sched/saath.h"
#include "sched/uc_tcp.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/synth.h"

namespace saath {
namespace {

using testing::make_coflow;
using testing::make_trace;
using testing::toy_config;

TEST(Engine, SingleFlowExactCompletion) {
  // 1000 bytes at 100 B/s = 10 s.
  auto t = make_trace(2, {make_coflow(0, 0, {{0, 1, 1000}})});
  UcTcpScheduler sched;
  const auto result = simulate(t, sched, toy_config());
  ASSERT_EQ(result.coflows.size(), 1u);
  EXPECT_NEAR(result.coflows[0].cct_seconds(), 10.0, 0.001);
}

TEST(Engine, ArrivalOffsetDoesNotInflateCct) {
  auto t = make_trace(2, {make_coflow(0, seconds(5), {{0, 1, 1000}})});
  UcTcpScheduler sched;
  const auto result = simulate(t, sched, toy_config());
  EXPECT_NEAR(result.coflows[0].cct_seconds(), 10.0, 0.001);
  EXPECT_EQ(result.coflows[0].arrival, seconds(5));
  EXPECT_NEAR(to_seconds(result.coflows[0].finish), 15.0, 0.001);
}

TEST(Engine, TwoFlowsShareSenderPort) {
  // Two 500-byte flows from the same sender: fair share 50 B/s each ->
  // both finish at 10 s.
  auto t = make_trace(3, {make_coflow(0, 0, {{0, 1, 500}, {0, 2, 500}})});
  UcTcpScheduler sched;
  const auto result = simulate(t, sched, toy_config());
  EXPECT_NEAR(result.coflows[0].cct_seconds(), 10.0, 0.001);
}

TEST(Engine, BandwidthFreedAtNextEpochOnly) {
  // Flow A (100 bytes) and flow B (1000 bytes) share a sender. A finishes
  // at 2 s; without mid-epoch reallocation, B only picks up A's share at
  // the next δ boundary. With δ = 100 ms the loss is bounded by one epoch.
  auto t = make_trace(3, {make_coflow(0, 0, {{0, 1, 100}, {0, 2, 1000}})});
  UcTcpScheduler sched;
  SimConfig cfg = toy_config();
  cfg.delta = msec(100);
  const auto result = simulate(t, sched, cfg);
  // B: 2 s at 50 B/s (100 bytes) + 9 s at 100 B/s (900) = 11 s (+<=1 epoch).
  EXPECT_GE(result.coflows[0].cct_seconds(), 10.99);
  EXPECT_LE(result.coflows[0].cct_seconds(), 11.25);
}

TEST(Engine, LargerDeltaWastesMoreBandwidth) {
  auto t = make_trace(3, {make_coflow(0, 0, {{0, 1, 100}, {0, 2, 1000}})});
  SimConfig small = toy_config();
  small.delta = msec(20);
  SimConfig big = toy_config();
  big.delta = msec(1000);
  UcTcpScheduler s1, s2;
  const double cct_small = simulate(t, s1, small).coflows[0].cct_seconds();
  const double cct_big = simulate(t, s2, big).coflows[0].cct_seconds();
  EXPECT_LE(cct_small, cct_big + 1e-9);
}

TEST(Engine, ReallocateOnCompletionIsIdealized) {
  auto t = make_trace(3, {make_coflow(0, 0, {{0, 1, 100}, {0, 2, 1000}})});
  SimConfig cfg = toy_config();
  cfg.delta = msec(1000);
  cfg.reallocate_on_completion = true;
  UcTcpScheduler sched;
  const auto result = simulate(t, sched, cfg);
  EXPECT_NEAR(result.coflows[0].cct_seconds(), 11.0, 0.01);
}

TEST(Engine, MakespanCoversLastFinish) {
  auto t = make_trace(2, {make_coflow(0, 0, {{0, 1, 500}}),
                          make_coflow(1, seconds(20), {{1, 0, 500}})});
  UcTcpScheduler sched;
  const auto result = simulate(t, sched, toy_config());
  EXPECT_NEAR(to_seconds(result.makespan), 25.0, 0.01);
}

TEST(Engine, IdleGapSkipsToNextArrival) {
  // A long idle gap between coflows must not blow up the round count.
  auto t = make_trace(2, {make_coflow(0, 0, {{0, 1, 100}}),
                          make_coflow(1, seconds(1000), {{0, 1, 100}})});
  UcTcpScheduler sched;
  Engine engine(t, sched, toy_config());
  const auto result = engine.run();
  EXPECT_EQ(result.coflows.size(), 2u);
  // 1 s of work each at 10 epochs/s plus slack — far below the 10k epochs
  // a naive 0..1001 s loop at delta=100ms would need.
  EXPECT_LT(engine.scheduling_rounds(), 100);
}

TEST(Engine, ResultsSortedByCoflowId) {
  auto t = make_trace(3, {make_coflow(0, 0, {{0, 1, 5000}}),
                          make_coflow(1, seconds(1), {{1, 2, 10}})});
  UcTcpScheduler sched;
  const auto result = simulate(t, sched, toy_config());
  ASSERT_EQ(result.coflows.size(), 2u);
  EXPECT_EQ(result.coflows[0].id, CoflowId{0});
  EXPECT_EQ(result.coflows[1].id, CoflowId{1});  // finished first, listed second
}

TEST(Engine, ConservationAllBytesDelivered) {
  const auto t = trace::synth_small_trace(8, 30, 11);
  SaathScheduler sched(aalo_config());
  SimConfig cfg;
  cfg.port_bandwidth = 1e6;
  cfg.delta = msec(100);
  const auto result = simulate(t, sched, cfg);
  ASSERT_EQ(result.coflows.size(), t.coflows.size());
  Bytes total = 0;
  for (const auto& c : result.coflows) total += c.total_bytes;
  EXPECT_EQ(total, t.total_bytes());
}

TEST(Engine, FlowFctsRecordedPerFlow) {
  auto t = make_trace(3, {make_coflow(0, 0, {{0, 1, 100}, {0, 2, 1000}})});
  UcTcpScheduler sched;
  const auto result = simulate(t, sched, toy_config());
  ASSERT_EQ(result.coflows[0].flow_fcts_seconds.size(), 2u);
  EXPECT_LT(result.coflows[0].flow_fcts_seconds[0],
            result.coflows[0].flow_fcts_seconds[1]);
}

TEST(Engine, NodeFailureRestartsFlows) {
  auto t = make_trace(2, {make_coflow(0, 0, {{0, 1, 1000}})});
  UcTcpScheduler sched;
  const auto result = simulate(
      testing::stream_of(
          t, {{seconds(5), DynamicsEvent::Kind::kNodeFailure, 0, 1.0}}),
      sched, toy_config());
  // 5 s of progress lost: total time = 5 + 10 = 15 s.
  EXPECT_NEAR(result.coflows[0].cct_seconds(), 15.0, 0.2);
}

TEST(Engine, StragglerSlowsPort) {
  auto t = make_trace(2, {make_coflow(0, 0, {{0, 1, 1000}})});
  UcTcpScheduler sched;
  const auto result = simulate(
      testing::stream_of(
          t, {{seconds(5), DynamicsEvent::Kind::kStragglerStart, 0, 0.1}}),
      sched, toy_config());
  // 5 s at 100 B/s, remaining 500 bytes at 10 B/s = 50 s -> 55 s total.
  EXPECT_NEAR(result.coflows[0].cct_seconds(), 55.0, 0.5);
}

TEST(Engine, StragglerEndRestoresPort) {
  auto t = make_trace(2, {make_coflow(0, 0, {{0, 1, 1000}})});
  UcTcpScheduler sched;
  const auto result = simulate(
      testing::stream_of(
          t, {{seconds(2), DynamicsEvent::Kind::kStragglerStart, 0, 0.1},
              {seconds(4), DynamicsEvent::Kind::kStragglerEnd, 0, 1.0}}),
      sched, toy_config());
  // 2s@100 + 2s@10 + 7.8s@100 = 11.8 s.
  EXPECT_NEAR(result.coflows[0].cct_seconds(), 11.8, 0.3);
}

TEST(Engine, DataUnavailabilityDelaysSaath) {
  auto t = make_trace(2, {make_coflow(0, 0, {{0, 1, 1000}})});
  SaathScheduler sched;
  const auto result = simulate(testing::stream_of(t, {}, {{0, seconds(3)}}),
                               sched, toy_config());
  // Saath skips the CoFlow until its data is ready at t=3 s.
  EXPECT_NEAR(result.coflows[0].cct_seconds(), 13.0, 0.3);
}

TEST(Engine, ReleasedCoflowRuns) {
  auto t = make_trace(2, {make_coflow(0, 0, {{0, 1, 100}})});
  UcTcpScheduler sched;
  auto source = testing::stream_of(
      t, {}, {}, [](const CoflowRecord& rec, SimTime now) {
        std::vector<CoflowSpec> out;
        if (rec.id == CoflowId{0}) {
          out.push_back(
              testing::make_coflow(100, now + msec(100), {{1, 0, 200}}));
        }
        return out;
      });
  const auto result = simulate(source, sched, toy_config());
  ASSERT_EQ(result.coflows.size(), 2u);
  EXPECT_EQ(result.coflows.back().id, CoflowId{100});
}

TEST(Engine, ThrowsOnStarvingScheduler) {
  // A scheduler that never assigns rates must trip the runaway guard.
  class NullScheduler final : public Scheduler {
   public:
    std::string name() const override { return "null"; }
    void schedule(SimTime, std::span<CoflowState* const>, Fabric&,
                  RateAssignment&) override {}
  };
  auto t = make_trace(2, {make_coflow(0, 0, {{0, 1, 100}})});
  NullScheduler sched;
  SimConfig cfg = toy_config();
  cfg.max_sim_time = seconds(10);
  Engine engine(t, sched, cfg);
  EXPECT_THROW(engine.run(), std::runtime_error);
  reference::ReferenceEngine reference_engine(t, sched, cfg);
  EXPECT_THROW((void)reference_engine.run(), std::runtime_error);
}

TEST(Engine, OverdrawingSchedulerDetected) {
  class GreedyOverdraw final : public Scheduler {
   public:
    std::string name() const override { return "overdraw"; }
    void schedule(SimTime, std::span<CoflowState* const> active,
                  Fabric& fabric, RateAssignment& rates) override {
      for (CoflowState* c : active) {
        for (auto& f : c->flows()) {
          if (!f.finished()) rates.set(*c, f, 2 * fabric.port_bandwidth());
        }
      }
    }
  };
  auto t = make_trace(2, {make_coflow(0, 0, {{0, 1, 100}})});
  GreedyOverdraw sched;
  Engine engine(t, sched, toy_config());
  EXPECT_THROW(engine.run(), std::logic_error);
  reference::ReferenceEngine reference_engine(t, sched, toy_config());
  EXPECT_THROW((void)reference_engine.run(), std::logic_error);
}

TEST(Engine, ReferenceEngineRejectsConfigsItDoesNotModel) {
  auto t = make_trace(2, {make_coflow(0, 0, {{0, 1, 100}})});
  UcTcpScheduler sched;
  SimConfig quarantine = toy_config();
  quarantine.max_stall_epochs = 3;
  SimConfig tolerant = toy_config();
  tolerant.strict_input = false;
  SimConfig streaming = toy_config();
  streaming.record_results = false;
  for (const SimConfig& cfg : {quarantine, tolerant, streaming}) {
    EXPECT_THROW((void)reference::ReferenceEngine(t, sched, cfg),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace saath
