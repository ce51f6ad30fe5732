#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
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

/// The instant Saath programs for a crossing `seconds` after `now`: the
/// µs-truncated delay less the guard that keeps float rounding early.
SimTime guarded_crossing(SimTime now, double seconds) {
  const auto dt = static_cast<SimTime>(seconds * 1e6);
  return now + std::max<SimTime>(0, dt - 1 - (dt >> 40));
}

/// Seconds until flow `f` of `c` has sent the per-flow share of its queue's
/// upper threshold, hi_threshold(q) / width (Eq. 1), at its current rate.
double seconds_to_bound(const CoflowState& c, const FlowState& f, SimTime now) {
  const double bound = QueueStructure().hi_threshold(c.queue_index) / c.width();
  return (bound - f.sent(now)) / f.rate();
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
  set.announce(sched);
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
  set.announce(sched);
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
  set.announce(sched);
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
  set.announce(sched);
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
  set.announce(sched);
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
  set.announce(pf);
  Fabric fabric(8, 100e6);
  pf.schedule(seconds(1), set.active(), fabric);
  EXPECT_EQ(c.queue_index, 1);

  // Aalo-style total-bytes rule keeps it in Q0 (3MB < 10MB).
  c.queue_index = 0;
  SaathConfig total_cfg = no_deadline();
  total_cfg.per_flow_threshold = false;
  SaathScheduler total(total_cfg);
  set.announce(total);
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
  set.announce(sched);
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
  set.announce(sched);
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
  set.announce(sched);
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
  set.announce(sched);
  Fabric fabric(4, 1e6);
  sched.schedule(seconds(1), set.active(), fabric);
  EXPECT_EQ(c.queue_index, 3);

  // One flow finishes; the other is restarted by a failure and flagged.
  set.complete(sched, 0, 0, seconds(2));
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
  set.announce(sched);
  Fabric fabric(2, 100.0);
  sched.schedule(0, set.active(), fabric);
  EXPECT_DOUBLE_EQ(set.at(0).flows()[0].rate(), 0.0);
  EXPECT_DOUBLE_EQ(fabric.send_remaining(0), 100.0);  // slot not wasted
}

TEST(Saath, PhaseStatsAccumulate) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 1, 1000}}));
  SaathScheduler sched;
  set.announce(sched);
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

TEST(Saath, NewStreamKeepsRestoredDeadlineAsTrigger) {
  // Engine::rebuild_coflow restores a CoFlow's D5 deadline before its
  // arrival hook. The first round of the resumed stream keeps that deadline
  // (the CoFlow does not re-enter a queue), so it must still be a time-only
  // trigger: otherwise the quiescent skip sleeps past the expiry that moves
  // the CoFlow to the head of the order.
  testing::StateSet set;
  // 40 MB at 250 MB/s crosses the 10 MB queue-0 threshold only at 40 ms.
  set.add(make_coflow(0, 0, {{0, 1, 40 * kMB}}));
  CoflowState& c = set.at(0);
  c.deadline = msec(10);
  SaathScheduler sched;
  set.announce(sched);
  Fabric fabric(2, 250e6);
  RateAssignment rates(2);
  rates.begin_epoch(0);
  SchedulerDelta delta;
  delta.stream_id = 77002;
  delta.mark(&c);
  sched.schedule(0, set.active(), fabric, rates, delta);
  ASSERT_EQ(c.deadline, msec(10));
  ASSERT_GT(c.flows()[0].rate(), 0.0);
  EXPECT_LE(sched.schedule_valid_until(0, set.active()), msec(10));
}

TEST(Saath, ReadmittedCoflowKeepsDeadlineAsTrigger) {
  // The engine re-admits a quarantined CoFlow through on_coflow_arrival
  // with the deadline it was stamped before. A delta round that keeps its
  // queue keeps that deadline, which must stay a trigger too.
  testing::StateSet set;
  // Queue 0 at 250 MB/s: the deadline is d * 1 * 40 ms = 80 ms, and the
  // 10 MB threshold needs 40 ms of sending.
  set.add(make_coflow(0, 0, {{0, 1, 40 * kMB}}));
  CoflowState& c = set.at(0);
  SaathScheduler sched;
  set.announce(sched);
  Fabric fabric(2, 250e6);
  RateAssignment rates(2);
  SchedulerDelta delta;
  delta.stream_id = 77003;
  const auto round = [&](SimTime now, std::span<CoflowState* const> active) {
    fabric.reset();
    rates.begin_epoch(now);
    sched.schedule(now, active, fabric, rates, delta);
    delta.clear_marks();
  };
  delta.mark(&c);
  round(0, set.active());
  const SimTime deadline = c.deadline;
  ASSERT_EQ(deadline, msec(80));

  // Quarantined after 1 ms of sending, re-admitted at 50 ms: the crossing
  // is then 39 ms away, past the deadline.
  sched.on_coflow_quarantined(c, msec(1));
  round(msec(1), {});
  sched.on_coflow_arrival(c, msec(50));
  delta.mark(&c);
  round(msec(50), set.active());
  ASSERT_EQ(c.deadline, deadline);
  ASSERT_GT(c.flows()[0].rate(), 0.0);
  EXPECT_LE(sched.schedule_valid_until(msec(50), set.active()), deadline);
}

TEST(Saath, BackfilledCoflowCrossesWithItsFastestBackfilledFlow) {
  // H ranks first (equal contention, earlier arrival) and its equal rate
  // fills receiver 8. The wide W needs receiver 8 too, so it misses
  // all-or-none, and the backfill rates only the flows whose two ports kept
  // budget: not 2->8, half rate on senders 0 and 1, full rate elsewhere.
  // W's crossing therefore comes from the backfill's rates alone.
  const Rate bw = 100 * kMB;
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 8, 1 * kMB}, {1, 8, 1 * kMB}}));
  set.add(make_coflow(1, usec(1), {{2, 8, 5 * kMB},
                                   {0, 9, 5 * kMB},
                                   {1, 10, 5 * kMB},
                                   {3, 11, 5 * kMB},
                                   {4, 12, 5 * kMB},
                                   {5, 13, 5 * kMB},
                                   {6, 14, 5 * kMB},
                                   {7, 15, 5 * kMB}}));
  CoflowState& w = set.at(1);
  // Bytes sent before this round, against W's per-flow bound of
  // 10 MB / 8 = 1.25 MB: flow 3 (1.1 MB at full rate) gets there first,
  // ahead of flow 1 (1.0 MB at half rate) and the unsent ones.
  const SimTime now = msec(10);
  const double sent_mb[] = {1.2, 1.0, 0.5, 1.1, 0, 0, 0, 0};
  for (std::size_t i = 0; i < w.flows().size(); ++i) {
    FlowState& f = w.flows()[i];
    f.set_rate(sent_mb[i] * kMB / to_seconds(now), 0);
    f.set_rate(0, now);
  }
  SaathScheduler sched(no_deadline());
  set.announce(sched);
  Fabric fabric(16, bw);
  RateAssignment rates(16);
  rates.begin_epoch(now);
  SchedulerDelta delta;
  delta.stream_id = 77004;
  sched.schedule(now, set.active(), fabric, rates, delta);

  ASSERT_EQ(w.queue_index, 0);
  ASSERT_EQ(w.rated_flows(), 7);
  ASSERT_EQ(w.flows()[0].rate(), 0.0);
  ASSERT_EQ(w.flows()[1].rate(), bw / 2);
  const FlowState& fastest = w.flows()[3];
  ASSERT_EQ(fastest.rate(), bw);
  const double cross = seconds_to_bound(w, fastest, now);
  for (const FlowState& f : w.flows()) {
    if (f.rate() > 0) {
      ASSERT_LE(cross, seconds_to_bound(w, f, now));
    }
  }
  // H's 1 MB flows never reach its 5 MB per-flow bound, so W decides.
  EXPECT_EQ(sched.schedule_valid_until(now, set.active()),
            guarded_crossing(now, cross));
}

TEST(Saath, RoundsWithNoStreamProgramNoCrossings) {
  // After a round with no stream schedule_valid_until answers `now`, so
  // such a round programs no crossing. The next stream's first round lists
  // every CoFlow and programs its crossing from the rates it set, not from
  // the entry the previous stream left.
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 1, 40 * kMB}}));
  CoflowState& c = set.at(0);
  SaathScheduler sched;
  set.announce(sched);
  Fabric fabric(2, 250e6);
  RateAssignment rates(2);
  SchedulerDelta delta;
  const auto round = [&](SimTime now, std::uint64_t stream) {
    fabric.reset();
    rates.begin_epoch(now);
    delta.stream_id = stream;
    sched.schedule(now, set.active(), fabric, rates, delta);
  };
  // 250 MB/s reaches the 10 MB queue-0 threshold at 40 ms.
  round(0, 77005);
  ASSERT_EQ(sched.schedule_valid_until(0, set.active()), msec(40) - 1);
  const std::int64_t crossing_ns = sched.phase_stats().crossing_ns;

  // Port 0 drops to half rate for two rounds with no stream.
  fabric.set_port_capacity_factor(0, 0.5);
  for (const SimTime now : {msec(10), msec(20)}) {
    round(now, 0);
    EXPECT_EQ(sched.schedule_valid_until(now, set.active()), now);
  }
  EXPECT_EQ(sched.phase_stats().crossing_ns, crossing_ns);

  // By 30 ms the flow sent 2.5 + 2.5 MB; the other 5 MB to the threshold
  // take 40 ms at 125 MB/s, which is before the D5 deadline (80 ms).
  round(msec(30), 77006);
  ASSERT_EQ(c.queue_index, 0);
  ASSERT_EQ(c.flows()[0].rate(), 125e6);
  const double cross = seconds_to_bound(c, c.flows()[0], msec(30));
  const SimTime expected = guarded_crossing(msec(30), cross);
  EXPECT_GE(expected, msec(70) - 2);
  EXPECT_LT(expected, msec(70));
  ASSERT_LT(expected, c.deadline);
  EXPECT_EQ(sched.schedule_valid_until(msec(30), set.active()), expected);
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

// The lifecycle-hook contract (sim/scheduler.h) is checked, not repaired:
// a caller that skips a hook aborts instead of scheduling stale state.
TEST(SaathDeathTest, ScheduleOverUnannouncedCoflowAborts) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 1, 1000}}));
  SaathScheduler sched;
  Fabric fabric(2, 100.0);
  EXPECT_DEATH(sched.schedule(0, set.active(), fabric), "never announced");
}

TEST(SaathDeathTest, CompletionWithoutHookAbortsNextFullRound) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 1, 1000}, {2, 3, 1000}}));
  SaathScheduler sched;
  set.announce(sched);
  Fabric fabric(4, 100.0);
  sched.schedule(0, set.active(), fabric);
  CoflowState& c = set.at(0);
  c.on_flow_complete(c.flows()[0], seconds(1));  // the hook is skipped
  fabric.reset();
  EXPECT_DEATH(sched.schedule(seconds(1), set.active(), fabric),
               "without on_flow_complete");
}

// The slot table exists under every config, so the hooks check the
// contract under the Aalo preset as under LCoF.
const std::pair<const char*, SaathConfig> kHookPresets[] = {
    {"saath", SaathConfig{}},
    {"aalo", aalo_config()},
};

TEST(SaathDeathTest, SecondArrivalOfIndexedCoflowAborts) {
  for (const auto& [preset, cfg] : kHookPresets) {
    SCOPED_TRACE(preset);
    testing::StateSet set;
    set.add(make_coflow(0, 0, {{0, 1, 1000}}));
    SaathScheduler sched(cfg);
    set.announce(sched);
    EXPECT_DEATH(set.announce(sched), "already announced");
  }
}

TEST(SaathDeathTest, CompletionOfUnannouncedCoflowAborts) {
  for (const auto& [preset, cfg] : kHookPresets) {
    SCOPED_TRACE(preset);
    testing::StateSet set;
    set.add(make_coflow(0, 0, {{0, 1, 1000}}));
    set.add(make_coflow(1, 0, {{2, 3, 1000}}));
    CoflowState& c = set.at(1);
    SaathScheduler sched(cfg);
    sched.on_coflow_arrival(set.at(0), 0);
    c.on_flow_complete(c.flows()[0], seconds(1));
    EXPECT_DEATH(sched.on_flow_complete(c, c.flows()[0], seconds(1)),
                 "on_flow_complete for a CoFlow never announced");
    EXPECT_DEATH(sched.on_coflow_complete(c, seconds(1)),
                 "on_coflow_complete for a CoFlow never announced");
  }
}

// Only a restored CoFlow can carry a queue index past the last queue; its
// arrival is refused with a typed error, leaving the scheduler as it was.
TEST(Saath, ArrivalPastLastQueueThrows) {
  for (const auto& [preset, cfg] : kHookPresets) {
    SCOPED_TRACE(preset);
    testing::StateSet set;
    set.add(make_coflow(0, 0, {{0, 1, 1000}}));
    CoflowState& c = set.at(0);
    SaathScheduler sched(cfg);
    c.queue_index = cfg.queues.num_queues;
    EXPECT_THROW(sched.on_coflow_arrival(c, 0), std::invalid_argument);
    EXPECT_EQ(sched.slot_of(c.id()), kNoSlot);
    c.queue_index = 0;
    sched.on_coflow_arrival(c, 0);
    EXPECT_NE(sched.slot_of(c.id()), kNoSlot);
  }
}

// Every flow enters schedule() at rate 0, which is what lets the crossing
// fold see every rated flow. A caller that skips begin_epoch between two
// rounds breaks that: here the second round rates nothing of a CoFlow whose
// data went away, while its flows still carry the first round's rates.
TEST(SaathDeathTest, RoundEnteredWithRatedFlowsAborts) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 1, 40 * kMB}, {2, 3, 40 * kMB}}));
  CoflowState& c = set.at(0);
  SaathScheduler sched;
  set.announce(sched);
  Fabric fabric(4, 100.0);
  RateAssignment rates(4);
  SchedulerDelta delta;
  delta.stream_id = 77007;
  rates.begin_epoch(0);
  sched.schedule(0, set.active(), fabric, rates, delta);
  ASSERT_EQ(c.rated_flows(), 2);
  c.data_available = false;
  delta.mark(&c);
  fabric.reset();
  EXPECT_DEATH(sched.schedule(msec(1), set.active(), fabric, rates, delta),
               "every flow must start the round at rate 0");
}

}  // namespace
}  // namespace saath
