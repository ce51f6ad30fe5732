#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fabric/fabric.h"
#include "reference/reference.h"
#include "sched/saath.h"
#include "sim/engine.h"
#include "test_util.h"

namespace saath {
namespace {

using testing::make_coflow;
using testing::make_trace;
using testing::toy_config;

SaathConfig no_deadline() {
  SaathConfig cfg;
  cfg.deadline_factor = 0;  // isolate the mechanism under test
  return cfg;
}

TEST(Saath, NameReflectsAblation) {
  EXPECT_EQ(SaathScheduler().name(), "saath");
  SaathConfig an_fifo;
  an_fifo.per_flow_threshold = false;
  an_fifo.lcof = false;
  EXPECT_EQ(SaathScheduler(an_fifo).name(), "saath[an+total+fifo]");
}

TEST(Saath, AllOrNoneEqualRates) {
  // A 2x2 mesh gets one equal rate on every flow (D2).
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 2, 100}, {0, 3, 100}, {1, 2, 100}, {1, 3, 100}}));
  SaathScheduler sched(no_deadline());
  Fabric fabric(4, 100.0);
  sched.schedule(0, set.active(), fabric);
  for (const auto& f : set.at(0).flows()) {
    EXPECT_DOUBLE_EQ(f.rate(), 50.0);  // 2 flows per port -> 50 each
  }
}

TEST(Saath, AllOrNoneSkipsWhenAnyPortBusy) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 2, 1000}, {1, 3, 1000}}));
  set.add(make_coflow(1, usec(1), {{1, 4, 1000}, {5, 6, 1000}}));
  SaathConfig cfg = no_deadline();
  cfg.work_conservation = false;
  SaathScheduler sched(cfg);
  Fabric fabric(7, 100.0);
  sched.schedule(0, set.active(), fabric);
  // C0 (fewer contention ties broken by arrival) takes ports 0,1; C1 needs
  // port 1 -> all-or-none refuses, and with WC off it gets nothing at all.
  EXPECT_DOUBLE_EQ(set.at(0).flows()[0].rate(), 100.0);
  EXPECT_DOUBLE_EQ(set.at(0).flows()[1].rate(), 100.0);
  EXPECT_DOUBLE_EQ(set.at(1).flows()[0].rate(), 0.0);
  EXPECT_DOUBLE_EQ(set.at(1).flows()[1].rate(), 0.0);
}

TEST(Saath, WorkConservationBackfillsIdlePorts) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 2, 1000}, {1, 3, 1000}}));
  set.add(make_coflow(1, usec(1), {{1, 4, 1000}, {5, 6, 1000}}));
  SaathScheduler sched(no_deadline());
  Fabric fabric(7, 100.0);
  sched.schedule(0, set.active(), fabric);
  // With WC on, C1's flow on the free port 5 runs; the port-1 flow cannot.
  EXPECT_DOUBLE_EQ(set.at(1).flows()[0].rate(), 0.0);
  EXPECT_DOUBLE_EQ(set.at(1).flows()[1].rate(), 100.0);
}

TEST(Saath, Fig4WorkConservationScenario) {
  // Fig 4: C1={P1,P3}, C2={P1,P2}, C3={P2,P3}; every flow takes t.
  // All-or-none alone leaves ports idle (avg CCT 2t); with work
  // conservation C3 backfills and the average drops (paper: 1.67t).
  auto c1 = make_coflow(0, 0, {{0, 3, 100}, {2, 4, 100}});
  auto c2 = make_coflow(1, usec(1), {{0, 5, 100}, {1, 6, 100}});
  auto c3 = make_coflow(2, usec(2), {{1, 7, 100}, {2, 8, 100}});
  auto t = make_trace(9, {c1, c2, c3});

  SaathConfig with_wc = no_deadline();
  SaathConfig without_wc = no_deadline();
  without_wc.work_conservation = false;
  SaathScheduler s1(with_wc), s2(without_wc);
  const auto r_wc = simulate(t, s1, toy_config());
  const auto r_nowc = simulate(t, s2, toy_config());

  const auto avg = [](const SimResult& r) {
    double sum = 0;
    for (const auto& c : r.coflows) sum += c.cct_seconds();
    return sum / static_cast<double>(r.coflows.size());
  };
  EXPECT_LT(avg(r_wc), avg(r_nowc) - 0.2);
  // Without WC the three coflows serialize: 1t, 2t, 3t.
  EXPECT_NEAR(r_nowc.coflows[0].cct_seconds(), 1.0, 0.2);
  EXPECT_NEAR(r_nowc.coflows[1].cct_seconds(), 2.0, 0.25);
  EXPECT_NEAR(r_nowc.coflows[2].cct_seconds(), 3.0, 0.3);
}

TEST(Saath, LcofPrefersLowContention) {
  // C0 (wide) collides with both C1 and C2; C1 and C2 only with C0.
  // Same queue: LCoF schedules C1/C2 (k=1) before C0 (k=2).
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 3, 1000}, {1, 4, 1000}}));  // k=2
  set.add(make_coflow(1, usec(1), {{0, 5, 1000}}));          // k=1
  set.add(make_coflow(2, usec(2), {{1, 6, 1000}}));          // k=1
  SaathConfig cfg = no_deadline();
  cfg.work_conservation = false;
  SaathScheduler sched(cfg);
  Fabric fabric(7, 100.0);
  sched.schedule(0, set.active(), fabric);
  EXPECT_DOUBLE_EQ(set.at(1).flows()[0].rate(), 100.0);
  EXPECT_DOUBLE_EQ(set.at(2).flows()[0].rate(), 100.0);
  EXPECT_DOUBLE_EQ(set.at(0).flows()[0].rate(), 0.0);
}

TEST(Saath, FifoModeIgnoresContention) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 3, 1000}, {1, 4, 1000}}));
  set.add(make_coflow(1, usec(1), {{0, 5, 1000}}));
  set.add(make_coflow(2, usec(2), {{1, 6, 1000}}));
  SaathConfig cfg = no_deadline();
  cfg.lcof = false;
  cfg.work_conservation = false;
  SaathScheduler sched(cfg);
  Fabric fabric(7, 100.0);
  sched.schedule(0, set.active(), fabric);
  // FIFO: C0 arrived first and takes both ports.
  EXPECT_DOUBLE_EQ(set.at(0).flows()[0].rate(), 100.0);
  EXPECT_DOUBLE_EQ(set.at(1).flows()[0].rate(), 0.0);
  EXPECT_DOUBLE_EQ(set.at(2).flows()[0].rate(), 0.0);
}

TEST(Saath, PerFlowThresholdDemotesFaster) {
  // Fig 5: width-4 CoFlow with per-flow threshold Q0/4; once one flow
  // crosses it the whole CoFlow drops to Q1 even though total bytes are
  // far below the aggregate threshold.
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 4, 30 * kMB},
                             {1, 5, 30 * kMB},
                             {2, 6, 30 * kMB},
                             {3, 7, 30 * kMB}}));
  auto& c = set.at(0);
  // Only one flow progressed (e.g. via work conservation): 3MB > 10MB/4.
  c.flows()[0].set_rate(3e6, 0);  // lazy: 3MB accrued by the 1 s schedule

  SaathScheduler pf(no_deadline());
  Fabric fabric(8, 100e6);
  pf.schedule(seconds(1), set.active(), fabric);
  EXPECT_EQ(c.queue_index, 1);

  // Aalo-style total-bytes rule keeps it in Q0 (3MB < 10MB).
  c.queue_index = 0;
  SaathConfig total_cfg = no_deadline();
  total_cfg.per_flow_threshold = false;
  SaathScheduler total(total_cfg);
  total.schedule(seconds(1), set.active(), fabric);
  EXPECT_EQ(c.queue_index, 0);
}

TEST(Saath, HigherQueueServedFirst) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 2, 40 * kMB}}));
  set.add(make_coflow(1, seconds(1), {{0, 3, 1000}}));
  auto& old_coflow = set.at(0);
  old_coflow.flows()[0].set_rate(15e6, 0);  // 15MB by 1 s > Q0 threshold -> Q1
  SaathScheduler sched(no_deadline());
  Fabric fabric(4, 100.0);
  sched.schedule(seconds(1), set.active(), fabric);
  EXPECT_EQ(old_coflow.queue_index, 1);
  EXPECT_DOUBLE_EQ(set.at(1).flows()[0].rate(), 100.0);
  // Old coflow only gets the port via work conservation: nothing left.
  EXPECT_DOUBLE_EQ(old_coflow.flows()[0].rate(), 0.0);
}

TEST(Saath, StarvationDeadlinePromotesWithinQueue) {
  testing::StateSet set;
  // C0 is high-contention and would lose under LCoF forever.
  set.add(make_coflow(0, 0, {{0, 3, 1000}, {1, 4, 1000}}));
  set.add(make_coflow(1, usec(1), {{0, 5, 1000}}));
  set.add(make_coflow(2, usec(2), {{1, 6, 1000}}));
  SaathConfig cfg;
  cfg.deadline_factor = 2.0;
  cfg.work_conservation = false;
  SaathScheduler sched(cfg);
  Fabric fabric(7, 100.0);
  // First round sets deadlines.
  sched.schedule(0, set.active(), fabric);
  EXPECT_DOUBLE_EQ(set.at(0).flows()[0].rate(), 0.0);
  ASSERT_NE(set.at(0).deadline, kNever);
  // Far past the deadline, C0 must be served first despite max contention.
  // (All three got identical deadlines in the same round; push the
  // low-contention ones out so only C0 is expired, as staggered arrivals
  // would do naturally.)
  const SimTime late = set.at(0).deadline + seconds(1);
  set.at(1).deadline = late + seconds(100);
  set.at(2).deadline = late + seconds(100);
  fabric.reset();
  sched.schedule(late, set.active(), fabric);
  EXPECT_DOUBLE_EQ(set.at(0).flows()[0].rate(), 100.0);
  EXPECT_DOUBLE_EQ(set.at(1).flows()[0].rate(), 0.0);
}

TEST(Saath, NoDeadlinesWhenDisabled) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 1, 1000}}));
  SaathScheduler sched(no_deadline());
  Fabric fabric(2, 100.0);
  sched.schedule(0, set.active(), fabric);
  EXPECT_EQ(set.at(0).deadline, kNever);
}

TEST(Saath, DynamicsEstimateUsesMedianFinishedLength) {
  testing::StateSet set;
  set.add(make_coflow(0, 0,
                      {{0, 4, 100}, {1, 5, 100}, {2, 6, 100}, {3, 7, 400}}));
  auto& c = set.at(0);
  // Three flows of length 100 finish; the straggler (400) has sent 50.
  c.on_flow_complete(c.flows()[0], seconds(1));
  c.on_flow_complete(c.flows()[1], seconds(1));
  c.on_flow_complete(c.flows()[2], seconds(1));
  c.flows()[3].set_rate(50.0, 0);
  // median finished length = 100; remaining estimate = 100 - 50 = 50.
  EXPECT_DOUBLE_EQ(SaathScheduler::dynamics_remaining_estimate(c, seconds(1)),
                   50.0);
}

TEST(Saath, DynamicsFlagPromotesCoflow) {
  QueueConfig qcfg{.num_queues = 4, .start_threshold = 1000, .growth = 10.0};
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 2, 100'000}, {1, 3, 100'000}}));
  auto& c = set.at(0);
  // Both flows sent 60KB by 1 s: per-flow threshold Q0 = 500, Q1 = 5000,
  // Q2 = 50000: max_flow_sent 60000 >= 50000 -> queue 3.
  for (auto& f : c.flows()) f.set_rate(60'000, 0);
  SaathConfig cfg = no_deadline();
  cfg.queues = qcfg;
  SaathScheduler sched(cfg);
  Fabric fabric(4, 1e6);
  sched.schedule(seconds(1), set.active(), fabric);
  EXPECT_EQ(c.queue_index, 3);

  // One flow finishes; the other is restarted by a failure and flagged.
  c.on_flow_complete(c.flows()[0], seconds(2));
  c.restart_flows_on_port(1, seconds(2));
  c.dynamics_flagged = true;
  // Estimated remaining = median(100000) - 0 = 100000... still deep. Let
  // the restarted flow resend most of it, then expect promotion:
  c.flows()[1].set_rate(99'700, seconds(2));
  fabric.reset();
  sched.schedule(seconds(3), set.active(), fabric);
  // remaining = 100000 - 99700 = 300 -> per-flow Q0 bound 500 -> queue 0.
  EXPECT_EQ(c.queue_index, 0);
}

TEST(Saath, DataUnavailableCoflowSkippedEntirely) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 1, 1000}}));
  set.at(0).data_available = false;
  SaathScheduler sched(no_deadline());
  Fabric fabric(2, 100.0);
  sched.schedule(0, set.active(), fabric);
  EXPECT_DOUBLE_EQ(set.at(0).flows()[0].rate(), 0.0);
  EXPECT_DOUBLE_EQ(fabric.send_remaining(0), 100.0);  // slot not wasted
}

TEST(Saath, PhaseStatsAccumulate) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 1, 1000}}));
  SaathScheduler sched;
  Fabric fabric(2, 100.0);
  sched.schedule(0, set.active(), fabric);
  fabric.reset();
  sched.schedule(msec(8), set.active(), fabric);
  EXPECT_EQ(sched.phase_stats().rounds, 2);
  EXPECT_GT(sched.phase_stats().total_ns(), 0);
}

TEST(Saath, SkewedFlowsStillComplete) {
  // All-or-none with skewed flow lengths: the long flow paces the short
  // ones, but everything finishes.
  auto t = make_trace(4, {make_coflow(0, 0, {{0, 2, 100}, {1, 3, 10'000}})});
  SaathScheduler sched;
  const auto result = simulate(t, sched, toy_config());
  ASSERT_EQ(result.coflows.size(), 1u);
  EXPECT_NEAR(result.coflows[0].cct_seconds(), 100.0, 0.5);
}

TEST(Saath, IndexedBackfillEngagesAndMatchesDenseOnDeltaRounds) {
  // Drive precise deltas directly (the engine way) so the incremental
  // schedule path — and with it the port-indexed backfill — actually runs,
  // and compare every flow rate of every round against the reference
  // Saath's dense rescan.
  const auto drive = [](Scheduler& sched, std::vector<Rate>* rates_out) {
    testing::StateSet set;
    // Heavy contention on sender 0/receiver 9: most CoFlows miss admission
    // and live off the backfill.
    for (int i = 0; i < 6; ++i) {
      set.add(make_coflow(i, usec(i),
                          {{0, static_cast<PortIndex>(2 + i), 50'000},
                           {1, 9, 50'000},
                           {static_cast<PortIndex>(2 + i), 9, 50'000}}));
    }
    Fabric fabric(10, 1000.0);
    RateAssignment rates(10);
    SchedulerDelta delta;
    delta.full = false;
    delta.stream_id = 77001;
    for (CoflowState* c : set.active()) sched.on_coflow_arrival(*c, 0);
    for (int round = 0; round < 40; ++round) {
      const SimTime now = msec(8) * round;
      fabric.reset();
      rates.begin_epoch(now);
      sched.schedule(now, set.active(), fabric, rates, delta);
      delta.clear_marks();
      for (std::size_t i = 0; i < set.size(); ++i) {
        for (const auto& f : set.at(i).flows()) {
          rates_out->push_back(f.rate());
        }
      }
      if (round == 20) {
        // One mid-stream completion so the delta path sees churn.
        CoflowState& victim = set.at(0);
        FlowState& fl = victim.flows()[0];
        if (!fl.finished()) {
          rates.flow_stopped(fl);
          victim.on_flow_complete(fl, now);
          sched.on_flow_complete(victim, fl, now);
          delta.mark_requeue(&victim);
        }
      }
    }
  };

  std::vector<Rate> indexed_rates;
  std::vector<Rate> dense_rates;
  SaathScheduler indexed;
  reference::ReferenceSaath dense;
  drive(indexed, &indexed_rates);
  drive(dense, &dense_rates);

  ASSERT_EQ(indexed_rates.size(), dense_rates.size());
  for (std::size_t i = 0; i < indexed_rates.size(); ++i) {
    ASSERT_EQ(indexed_rates[i], dense_rates[i]) << "rate stream index " << i;
  }
  // The machinery must actually engage.
  const SaathPhaseStats& st = indexed.phase_stats();
  EXPECT_GT(st.delta_rounds, 0);
  EXPECT_GT(st.backfill_rounds, 0);
  EXPECT_GT(st.backfill_missed, 0);
}

TEST(Saath, ConserveReplayEngagesOnQuiescentEngineRounds) {
  // Scheduling every epoch (no quiescent skip), epochs with no delta replay
  // the whole admission prefix, and the results must equal the reference
  // Saath's exactly.
  const auto t = make_trace(
      6, {make_coflow(0, 0, {{0, 3, 5000}, {1, 4, 5000}}),
          make_coflow(1, usec(1), {{0, 5, 8000}, {2, 3, 8000}}),
          make_coflow(2, usec(2), {{1, 5, 8000}, {2, 4, 8000}})});
  const SimConfig cfg = toy_config();

  SaathScheduler indexed;
  reference::EveryEpoch every_epoch(indexed);
  reference::ReferenceSaath dense;
  const auto r_indexed = simulate(t, every_epoch, cfg);
  const auto r_dense = simulate(t, dense, cfg);

  ASSERT_EQ(r_indexed.coflows.size(), r_dense.coflows.size());
  for (std::size_t i = 0; i < r_indexed.coflows.size(); ++i) {
    EXPECT_EQ(r_indexed.coflows[i].finish, r_dense.coflows[i].finish);
    EXPECT_EQ(r_indexed.coflows[i].flow_fcts_seconds,
              r_dense.coflows[i].flow_fcts_seconds);
  }
  EXPECT_GT(indexed.phase_stats().replayed_ranks, 0);
}

TEST(Saath, Fig8LcofLimitationReproduced) {
  // Fig 8: S1 has C2,C1; S2 has C2,C3. C1 and C3 are long but low-
  // contention singles; C2 is wide (both ports). LCoF runs C1/C3 first,
  // delaying C2 — the documented rare sub-optimality. The figure assumes
  // simultaneous arrivals (ties broken by id), so all arrive at t=0.
  auto c1 = make_coflow(0, 0, {{0, 2, 250}});           // 2.5t on S1
  auto c2 = make_coflow(1, 0, {{0, 3, 100}, {1, 4, 100}});  // t on both
  auto c3 = make_coflow(2, 0, {{1, 5, 250}});           // 2.5t on S2
  auto t = make_trace(6, {c1, c2, c3});
  SaathConfig cfg = no_deadline();
  cfg.work_conservation = false;
  SaathScheduler sched(cfg);
  const auto result = simulate(t, sched, toy_config());
  // LCoF: k(C1)=k(C3)=1 < k(C2)=2 -> C1,C3 run [0,2.5), C2 runs [2.5,3.5).
  EXPECT_NEAR(result.coflows[0].cct_seconds(), 2.5, 0.2);
  EXPECT_NEAR(result.coflows[2].cct_seconds(), 2.5, 0.2);
  EXPECT_NEAR(result.coflows[1].cct_seconds(), 3.5, 0.2);
}

}  // namespace
}  // namespace saath
