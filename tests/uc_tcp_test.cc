#include <gtest/gtest.h>

#include "fabric/fabric.h"
#include "sched/uc_tcp.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/synth.h"

namespace saath {
namespace {

using testing::make_coflow;
using testing::make_trace;
using testing::toy_config;

TEST(UcTcp, AllFlowsActiveImmediately) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 2, 1000}}));
  set.add(make_coflow(1, usec(1), {{1, 3, 1000}}));
  UcTcpScheduler sched;
  Fabric fabric(4, 100.0);
  sched.schedule(0, set.active(), fabric);
  EXPECT_DOUBLE_EQ(set.at(0).flows()[0].rate(), 100.0);
  EXPECT_DOUBLE_EQ(set.at(1).flows()[0].rate(), 100.0);
}

TEST(UcTcp, FairShareNotPriority) {
  // Unlike every queue-based policy, contending flows split the port.
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 1, 10'000}}));
  set.add(make_coflow(1, usec(1), {{0, 2, 100}}));
  UcTcpScheduler sched;
  Fabric fabric(3, 100.0);
  sched.schedule(0, set.active(), fabric);
  EXPECT_DOUBLE_EQ(set.at(0).flows()[0].rate(), 50.0);
  EXPECT_DOUBLE_EQ(set.at(1).flows()[0].rate(), 50.0);
}

TEST(UcTcp, ShortCoflowSuffersUnderFairShare) {
  // The §6.1 story: without prioritization a short coflow is dragged out
  // by a long one. Short coflow alone would finish in 1 s; sharing with
  // the long one it takes ~2 s.
  auto t = make_trace(3, {make_coflow(0, 0, {{0, 1, 10'000}}),
                          make_coflow(1, 0, {{0, 2, 100}})});
  UcTcpScheduler sched;
  const auto result = simulate(t, sched, toy_config());
  EXPECT_NEAR(result.coflows[1].cct_seconds(), 2.0, 0.1);
}

TEST(UcTcp, RespectsStragglerCapacity) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 1, 1000}}));
  UcTcpScheduler sched;
  Fabric fabric(2, 100.0);
  fabric.set_port_capacity_factor(0, 0.2);
  fabric.reset();
  sched.schedule(0, set.active(), fabric);
  EXPECT_DOUBLE_EQ(set.at(0).flows()[0].rate(), 20.0);
}

TEST(UcTcp, ManyFlowsCapacityInvariant) {
  const auto t = trace::synth_small_trace(5, 15, 23);
  UcTcpScheduler sched;
  SimConfig cfg;
  cfg.port_bandwidth = 1e6;
  cfg.delta = msec(50);  // the engine throws on a capacity violation
  const auto result = simulate(t, sched, cfg);
  EXPECT_EQ(result.coflows.size(), t.coflows.size());
}

}  // namespace
}  // namespace saath
