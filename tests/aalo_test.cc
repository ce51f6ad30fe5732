#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fabric/fabric.h"
#include "sched/saath.h"
#include "sim/engine.h"
#include "test_util.h"

namespace saath {
namespace {

using testing::make_coflow;
using testing::make_trace;
using testing::toy_config;

TEST(Aalo, FifoWithinQueueByArrival) {
  // Two coflows on the same sender port; earlier arrival is served first,
  // fully occupying the port (greedy).
  testing::StateSet set;
  set.add(make_coflow(0, seconds(1), {{0, 1, 1000}}));
  set.add(make_coflow(1, seconds(0), {{0, 2, 1000}}));
  SaathScheduler sched(aalo_config());
  set.announce(sched);
  Fabric fabric(3, 100.0);
  sched.schedule(seconds(2), set.active(), fabric);
  EXPECT_DOUBLE_EQ(set.at(0).flows()[0].rate(), 0.0);
  EXPECT_DOUBLE_EQ(set.at(1).flows()[0].rate(), 100.0);
}

TEST(Aalo, HigherQueueStrictlyFirst) {
  testing::StateSet set;
  // C0 arrived first but already sent enough to sit in a lower queue.
  set.add(make_coflow(0, 0, {{0, 1, static_cast<Bytes>(40 * kMB)}}));
  set.add(make_coflow(1, seconds(5), {{0, 2, 1000}}));
  // Push C0 beyond the 10MB Q0 threshold.
  auto& f = set.at(0).flows()[0];
  f.set_rate(20e6, 0);
  ASSERT_GT(set.at(0).total_sent(seconds(1)), 10e6);
  f.set_rate(0, seconds(1));

  SaathScheduler sched(aalo_config());
  set.announce(sched);
  Fabric fabric(3, 100.0);
  sched.schedule(seconds(6), set.active(), fabric);
  EXPECT_DOUBLE_EQ(set.at(1).flows()[0].rate(), 100.0);  // newcomer in Q0 wins
  EXPECT_DOUBLE_EQ(set.at(0).flows()[0].rate(), 0.0);
}

TEST(Aalo, IntraCoflowFairSplitAtSenderPort) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 1, 1000}, {0, 2, 1000}}));
  SaathScheduler sched(aalo_config());
  set.announce(sched);
  Fabric fabric(3, 100.0);
  sched.schedule(0, set.active(), fabric);
  EXPECT_DOUBLE_EQ(set.at(0).flows()[0].rate(), 50.0);
  EXPECT_DOUBLE_EQ(set.at(0).flows()[1].rate(), 50.0);
}

TEST(Aalo, WorkConservingAcrossCoflows) {
  // C0 occupies port 0 only; C1 uses port 1 — both run concurrently.
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 2, 1000}}));
  set.add(make_coflow(1, seconds(1), {{1, 2, 1000}}));
  SaathScheduler sched(aalo_config());
  set.announce(sched);
  Fabric fabric(3, 100.0);
  sched.schedule(seconds(2), set.active(), fabric);
  // Receiver 2 is shared: C0 takes 100, C1 gets receiver leftovers = 0.
  EXPECT_DOUBLE_EQ(set.at(0).flows()[0].rate(), 100.0);
  EXPECT_DOUBLE_EQ(set.at(1).flows()[0].rate(), 0.0);

  // Distinct receivers -> both at line rate.
  testing::StateSet set2;
  set2.add(make_coflow(0, 0, {{0, 2, 1000}}));
  set2.add(make_coflow(1, seconds(1), {{1, 3, 1000}}));
  SaathScheduler sched2(aalo_config());
  set2.announce(sched2);
  Fabric fabric2(4, 100.0);
  sched2.schedule(seconds(2), set2.active(), fabric2);
  EXPECT_DOUBLE_EQ(set2.at(0).flows()[0].rate(), 100.0);
  EXPECT_DOUBLE_EQ(set2.at(1).flows()[0].rate(), 100.0);
}

// Runs an Aalo-configured SaathScheduler and records, after each round,
// the queue of every active CoFlow.
class QueueRecorder final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override {
    inner_.schedule(now, active, fabric, rates);
    record(now, active);
  }
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates,
                const SchedulerDelta& delta) override {
    inner_.schedule(now, active, fabric, rates, delta);
    record(now, active);
  }
  [[nodiscard]] SimTime schedule_valid_until(
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
  void on_coflow_quarantined(CoflowState& c, SimTime now) override {
    inner_.on_coflow_quarantined(c, now);
  }

  /// (round time, queue index) per active CoFlow per round.
  std::vector<std::pair<SimTime, int>> queues;

 private:
  void record(SimTime now, std::span<CoflowState* const> active) {
    for (const CoflowState* c : active) {
      queues.emplace_back(now, c->queue_index);
    }
  }

  SaathScheduler inner_{aalo_config()};
};

TEST(Aalo, QueueIndexNeverDecreases) {
  // Even after a restart wipes progress, Aalo keeps the CoFlow demoted.
  auto t = make_trace(2, {make_coflow(0, 0, {{0, 1, 30 * kMB}})});
  QueueRecorder sched;
  SimConfig cfg;
  cfg.port_bandwidth = 10e6;  // 10 MB/s: crosses the 10MB threshold at 1s
  cfg.delta = msec(100);
  const auto result = simulate(
      testing::stream_of(
          t, {{seconds(2), DynamicsEvent::Kind::kNodeFailure, 0, 1.0}}),
      sched, cfg);
  // Progress lost at t=2 (20MB sent, queue 1); restart resends 30MB.
  EXPECT_NEAR(result.coflows[0].cct_seconds(), 5.0, 0.3);
  // After the restart its bytes sent start again from 0 and stay under the
  // 10MB threshold until 3s, yet every round keeps it in queue 1.
  int after_restart = 0;
  for (const auto& [now, queue] : sched.queues) {
    if (now < seconds(2)) continue;
    ++after_restart;
    EXPECT_EQ(queue, 1) << "round at " << now << " us";
  }
  EXPECT_GT(after_restart, 0);
}

TEST(Aalo, SingleCoflowUsesFullFabric) {
  auto t = make_trace(4, {make_coflow(
                             0, 0, {{0, 2, 1000}, {1, 3, 1000}})});
  SaathScheduler sched(aalo_config());
  const auto result = simulate(t, sched, toy_config());
  EXPECT_NEAR(result.coflows[0].cct_seconds(), 10.0, 0.01);
}

TEST(Aalo, Fig1OutOfSyncBehaviour) {
  // Fig 1: 3 sender ports. C1 = {P1,P3}, C2 = {P1,P2}, C3 = {P2,P3}, all in
  // Q0, arrivals C1 < C2 < C3; every flow takes t at line rate. FIFO gives
  // C1 both ports at t=0; C2 then holds P2 idle-blocked... Under Aalo's
  // greedy FIFO: C1 runs [0,t) on P1,P3; C2 gets P2 at 0 for one of its
  // flows (out-of-sync!) and P1 only at t; C3 waits for both.
  auto c1 = make_coflow(0, 0, {{0, 3, 100}, {2, 4, 100}});
  auto c2 = make_coflow(1, usec(1), {{0, 5, 100}, {1, 6, 100}});
  auto c3 = make_coflow(2, usec(2), {{1, 7, 100}, {2, 8, 100}});
  auto t = make_trace(9, {c1, c2, c3});
  SaathScheduler sched(aalo_config());
  SimConfig cfg = toy_config();  // 100 B/s -> each flow takes ~1 s
  const auto result = simulate(t, sched, cfg);
  // C1 finishes in ~1s.
  EXPECT_NEAR(result.coflows[0].cct_seconds(), 1.0, 0.15);
  // C2's P2-flow ran early but its P1-flow waited for C1: CCT ~2s, and its
  // two flows finished out of sync (~1s apart).
  EXPECT_NEAR(result.coflows[1].cct_seconds(), 2.0, 0.15);
  const auto& fcts = result.coflows[1].flow_fcts_seconds;
  EXPECT_GT(std::abs(fcts[0] - fcts[1]), 0.8);
  // C3 waits for C2's P2 flow? No — P2 freed at ~1s, P3 freed at ~1s: ~2s.
  EXPECT_NEAR(result.coflows[2].cct_seconds(), 2.0, 0.15);
}

}  // namespace
}  // namespace saath
