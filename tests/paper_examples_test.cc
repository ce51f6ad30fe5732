// End-to-end reproductions of the paper's worked toy examples (Figs 1, 4,
// 5, 8, 17 live in the per-scheduler tests where their mechanism belongs;
// this file covers the cross-scheduler comparisons the figures actually
// make: Saath vs Aalo on the same setup).
#include <gtest/gtest.h>

#include "sched/saath.h"
#include "sim/engine.h"
#include "test_util.h"

namespace saath {
namespace {

using testing::make_coflow;
using testing::make_trace;
using testing::toy_config;

// Fig 1: the out-of-sync problem. Ports P1..P3 host C1{P1,P3}, C2{P1,P2},
// C3{P2,P3} (+ C4 in the paper; the 3-coflow core shows the effect).
// Under Saath's all-or-none, C2's flows run together, so its FCTs align;
// under Aalo one C2 flow runs at t=0 and the other at t=1.
TEST(Fig1, SaathSynchronizesFlowsAaloDoesNot) {
  auto make = [&] {
    return make_trace(9, {make_coflow(0, 0, {{0, 3, 100}, {2, 4, 100}}),
                          make_coflow(1, usec(1), {{0, 5, 100}, {1, 6, 100}}),
                          make_coflow(2, usec(2), {{1, 7, 100}, {2, 8, 100}})});
  };

  SaathScheduler aalo(aalo_config());
  const auto r_aalo = simulate(make(), aalo, toy_config());
  SaathConfig cfg;
  cfg.deadline_factor = 0;
  cfg.work_conservation = false;  // isolate all-or-none
  SaathScheduler saath(cfg);
  const auto r_saath = simulate(make(), saath, toy_config());

  const auto spread = [](const CoflowRecord& rec) {
    double lo = rec.flow_fcts_seconds[0], hi = lo;
    for (double v : rec.flow_fcts_seconds) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    return hi - lo;
  };
  // C2 under Aalo: one flow at ~1s, the other at ~2s.
  EXPECT_GT(spread(r_aalo.coflows[1]), 0.8);
  // Under Saath every coflow's flows finish together.
  for (const auto& rec : r_saath.coflows) {
    EXPECT_LT(spread(rec), 0.05) << "coflow " << rec.id.value;
  }
}

// Fig 5 end-to-end: the per-flow queue threshold frees contended ports
// sooner. C2 is a 4-flow coflow whose queue transition under Aalo takes 2x
// longer because only 2 of its ports make progress.
TEST(Fig5, FastQueueTransitionHelpsCompetitor) {
  // Port layout (senders): C1 = {0,1}; C2 = {0,1,2,3}.
  // C2's flows on ports 2,3 run immediately; on 0,1 it waits behind C1.
  // Q0 threshold: 4MB total / 1MB per-flow (width 4).
  QueueConfig qcfg{.num_queues = 3, .start_threshold = 4 * kMB, .growth = 10.0};
  const Bytes big = 20 * kMB;
  auto make = [&] {
    return make_trace(10, {make_coflow(0, 0, {{0, 4, big}, {1, 5, big}}),
                           make_coflow(1, usec(1), {{0, 6, big},
                                                    {1, 7, big},
                                                    {2, 8, big},
                                                    {3, 9, big}})});
  };
  SimConfig sim;
  sim.port_bandwidth = 1e6;  // 1 MB/s -> Q0 residence ~4 s aggregate
  sim.delta = msec(100);

  SaathScheduler aalo(aalo_config(qcfg));
  const auto r_aalo = simulate(make(), aalo, sim);

  SaathConfig scfg;
  scfg.queues = qcfg;
  scfg.deadline_factor = 0;
  SaathScheduler saath(scfg);
  const auto r_saath = simulate(make(), saath, sim);

  // C1 (the competitor sharing ports 0,1) finishes sooner under Saath
  // because C2 demotes out of Q0 faster.
  EXPECT_LT(r_saath.coflows[0].cct_seconds(),
            r_aalo.coflows[0].cct_seconds() + 0.5);
}

// Fig 4(c) vs Fig 1: work conservation must never make any coflow slower
// than strict all-or-none on the Fig 4 setup.
TEST(Fig4, WorkConservationParetoImproves) {
  auto make = [&] {
    return make_trace(9, {make_coflow(0, 0, {{0, 3, 100}, {2, 4, 100}}),
                          make_coflow(1, usec(1), {{0, 5, 100}, {1, 6, 100}}),
                          make_coflow(2, usec(2), {{1, 7, 100}, {2, 8, 100}})});
  };
  SaathConfig with;
  with.deadline_factor = 0;
  SaathConfig without = with;
  without.work_conservation = false;
  SaathScheduler s_with(with), s_without(without);
  const auto r_with = simulate(make(), s_with, toy_config());
  const auto r_without = simulate(make(), s_without, toy_config());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LE(r_with.coflows[i].cct_seconds(),
              r_without.coflows[i].cct_seconds() + 0.15)
        << "coflow " << i;
  }
}

}  // namespace
}  // namespace saath
