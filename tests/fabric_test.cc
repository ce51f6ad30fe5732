#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "fabric/fabric.h"
#include "fabric/maxmin.h"

namespace saath {
namespace {

TEST(Fabric, StartsAtFullCapacity) {
  Fabric f(4, 100.0);
  for (PortIndex p = 0; p < 4; ++p) {
    EXPECT_DOUBLE_EQ(f.send_remaining(p), 100.0);
    EXPECT_DOUBLE_EQ(f.recv_remaining(p), 100.0);
  }
  EXPECT_DOUBLE_EQ(f.total_allocated(), 0.0);
}

TEST(Fabric, ConsumeDecrementsBothEnds) {
  Fabric f(3, 100.0);
  f.consume(0, 2, 40.0);
  EXPECT_DOUBLE_EQ(f.send_remaining(0), 60.0);
  EXPECT_DOUBLE_EQ(f.recv_remaining(2), 60.0);
  EXPECT_DOUBLE_EQ(f.send_remaining(2), 100.0);
  EXPECT_DOUBLE_EQ(f.recv_remaining(0), 100.0);
  EXPECT_DOUBLE_EQ(f.total_allocated(), 40.0);
}

TEST(Fabric, ResetRestoresBudgets) {
  Fabric f(2, 50.0);
  f.consume(0, 1, 50.0);
  EXPECT_FALSE(f.available(0, 1));
  f.reset();
  EXPECT_TRUE(f.available(0, 1));
  EXPECT_DOUBLE_EQ(f.send_remaining(0), 50.0);
}

TEST(Fabric, AvailableRespectsEpsilon) {
  Fabric f(2, 100.0);
  f.consume(0, 1, 99.5);
  EXPECT_TRUE(f.available(0, 1, 0.0));
  EXPECT_FALSE(f.available(0, 1, 1.0));
}

TEST(Fabric, SelfLoopUsesBothDirections) {
  Fabric f(2, 100.0);
  // Port 0 sending to itself consumes uplink and downlink independently.
  f.consume(0, 0, 70.0);
  EXPECT_DOUBLE_EQ(f.send_remaining(0), 30.0);
  EXPECT_DOUBLE_EQ(f.recv_remaining(0), 30.0);
}

TEST(Fabric, CapacityFactorScalesBudget) {
  Fabric f(2, 100.0);
  f.set_port_capacity_factor(1, 0.25);
  f.reset();
  EXPECT_DOUBLE_EQ(f.send_remaining(1), 25.0);
  EXPECT_DOUBLE_EQ(f.recv_remaining(1), 25.0);
  EXPECT_DOUBLE_EQ(f.send_capacity(1), 25.0);
  EXPECT_DOUBLE_EQ(f.send_remaining(0), 100.0);
  f.set_port_capacity_factor(1, 1.0);
  f.reset();
  EXPECT_DOUBLE_EQ(f.send_remaining(1), 100.0);
}

TEST(Fabric, TotalAllocatedRespectsDerating) {
  // Regression: used capacity was computed against the NOMINAL bandwidth
  // (port_bandwidth - remaining) while reset seeds the derated budget, so a
  // 0.25-factor port looked 75% used before a single byte was allocated.
  Fabric f(2, 100.0);
  f.set_port_capacity_factor(0, 0.25);
  f.reset();
  EXPECT_DOUBLE_EQ(f.total_allocated(), 0.0);
  f.consume(0, 1, 10.0);  // derated uplink: 10 of the 25 budget
  EXPECT_DOUBLE_EQ(f.total_allocated(), 10.0);
  f.consume(1, 1, 50.0);  // full-capacity uplink alongside it
  EXPECT_DOUBLE_EQ(f.total_allocated(), 60.0);
}

TEST(Fabric, ResidualLiveSetsTrackConsumption) {
  Fabric f(3, 100.0);
  EXPECT_EQ(f.send_live().size(), 3u);
  EXPECT_EQ(f.recv_live().size(), 3u);

  // Partial consumption keeps both ends live.
  f.consume(0, 1, 40.0);
  EXPECT_TRUE(f.send_is_live(0));
  EXPECT_TRUE(f.recv_is_live(1));

  // Draining past the epsilon removes exactly the drained directions.
  f.consume(0, 1, 60.0);
  EXPECT_FALSE(f.send_is_live(0));
  EXPECT_FALSE(f.recv_is_live(1));
  EXPECT_TRUE(f.recv_is_live(0));  // downlink of machine 0 untouched
  EXPECT_TRUE(f.send_is_live(1));
  EXPECT_EQ(f.send_live().size(), 2u);
  EXPECT_EQ(f.recv_live().size(), 2u);

  // reset() re-seeds the sets.
  f.reset();
  EXPECT_EQ(f.send_live().size(), 3u);
  EXPECT_TRUE(f.send_is_live(0));

  // A zero-capacity (failed) port never joins the live sets.
  f.set_port_capacity_factor(2, 0.0);
  f.reset();
  EXPECT_FALSE(f.send_is_live(2));
  EXPECT_FALSE(f.recv_is_live(2));
  EXPECT_EQ(f.send_live().size(), 2u);
}

TEST(Fabric, ResidualLiveSetMatchesScanUnderChurn) {
  // Property: after any consume/reset sequence, the maintained sets agree
  // with a from-scratch scan of the remaining budgets.
  Fabric f(8, 100.0);
  f.set_port_capacity_factor(5, 0.3);
  f.reset();
  std::uint64_t rng = 42;
  const auto next = [&rng](std::uint64_t mod) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % mod;
  };
  const auto check = [&f] {
    int live_send = 0;
    int live_recv = 0;
    for (PortIndex p = 0; p < f.num_ports(); ++p) {
      const bool s_live = f.send_remaining(p) > Fabric::kRateEpsilon;
      const bool r_live = f.recv_remaining(p) > Fabric::kRateEpsilon;
      ASSERT_EQ(f.send_is_live(p), s_live) << "send port " << p;
      ASSERT_EQ(f.recv_is_live(p), r_live) << "recv port " << p;
      live_send += s_live ? 1 : 0;
      live_recv += r_live ? 1 : 0;
    }
    ASSERT_EQ(f.send_live().size(), static_cast<std::size_t>(live_send));
    ASSERT_EQ(f.recv_live().size(), static_cast<std::size_t>(live_recv));
    for (const PortIndex p : f.send_live()) ASSERT_TRUE(f.send_is_live(p));
    for (const PortIndex p : f.recv_live()) ASSERT_TRUE(f.recv_is_live(p));
  };
  for (int step = 0; step < 300; ++step) {
    if (step % 37 == 0) f.reset();
    const auto src = static_cast<PortIndex>(next(8));
    const auto dst = static_cast<PortIndex>(next(8));
    const Rate budget =
        std::min(f.send_remaining(src), f.recv_remaining(dst));
    const Rate r = budget * (next(5) == 0 ? 1.0 : 0.4);
    f.consume(src, dst, r);
    check();
  }
}

TEST(MaxMin, SingleFlowGetsFullPort) {
  const std::vector<MaxMinDemand> d{{0, 1, 0}};
  const auto r = maxmin_fair_rates(d, 2, 100.0);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_DOUBLE_EQ(r[0], 100.0);
}

TEST(MaxMin, TwoFlowsShareSenderEqually) {
  const std::vector<MaxMinDemand> d{{0, 1, 0}, {0, 2, 0}};
  const auto r = maxmin_fair_rates(d, 3, 100.0);
  EXPECT_DOUBLE_EQ(r[0], 50.0);
  EXPECT_DOUBLE_EQ(r[1], 50.0);
}

TEST(MaxMin, ReceiverBottleneckSharedEqually) {
  const std::vector<MaxMinDemand> d{{0, 2, 0}, {1, 2, 0}};
  const auto r = maxmin_fair_rates(d, 3, 100.0);
  EXPECT_DOUBLE_EQ(r[0], 50.0);
  EXPECT_DOUBLE_EQ(r[1], 50.0);
}

TEST(MaxMin, UnconstrainedFlowSoaksUpSlack) {
  // Flows A(0->2) and B(1->2) share receiver 2; flow C(1->3) shares sender 1
  // with B. Max-min: B is bottlenecked to 50 at either port; A gets the
  // remaining 50 at port 2; C gets sender-1 leftovers = 50... then port 3
  // still has slack but sender 1 is exhausted.
  const std::vector<MaxMinDemand> d{{0, 2, 0}, {1, 2, 0}, {1, 3, 0}};
  const auto r = maxmin_fair_rates(d, 4, 100.0);
  EXPECT_DOUBLE_EQ(r[1], 50.0);
  EXPECT_DOUBLE_EQ(r[0], 50.0);
  EXPECT_DOUBLE_EQ(r[2], 50.0);
}

TEST(MaxMin, CapLimitsFlow) {
  const std::vector<MaxMinDemand> d{{0, 1, 20.0}, {0, 2, 0}};
  const auto r = maxmin_fair_rates(d, 3, 100.0);
  EXPECT_DOUBLE_EQ(r[0], 20.0);
  EXPECT_DOUBLE_EQ(r[1], 80.0);  // released share goes to the other flow
}

TEST(MaxMin, ZeroCapMeansFrozen) {
  const std::vector<MaxMinDemand> d{{0, 1, 1e-13}, {0, 2, 0}};
  const auto r = maxmin_fair_rates(d, 3, 100.0);
  EXPECT_DOUBLE_EQ(r[0], 0.0);
  EXPECT_DOUBLE_EQ(r[1], 100.0);
}

TEST(MaxMin, HeterogeneousCapacities) {
  const std::vector<Rate> send{100.0, 10.0};
  const std::vector<Rate> recv{100.0, 100.0};
  const std::vector<MaxMinDemand> d{{0, 1, 0}, {1, 0, 0}};
  const auto r = maxmin_fair_rates(d, send, recv);
  EXPECT_DOUBLE_EQ(r[0], 100.0);
  EXPECT_DOUBLE_EQ(r[1], 10.0);  // degraded sender port
}

TEST(MaxMin, EmptyDemands) {
  const auto r = maxmin_fair_rates({}, 2, 100.0);
  EXPECT_TRUE(r.empty());
}

TEST(MaxMin, ManyFlowsNeverOverdrawPorts) {
  // Property: aggregate rate per port never exceeds capacity.
  std::vector<MaxMinDemand> d;
  for (int i = 0; i < 50; ++i) {
    d.push_back({static_cast<PortIndex>(i % 5),
                 static_cast<PortIndex>((i * 3) % 5), 0});
  }
  const auto r = maxmin_fair_rates(d, 5, 100.0);
  std::vector<double> send(5, 0), recv(5, 0);
  for (std::size_t i = 0; i < d.size(); ++i) {
    send[static_cast<std::size_t>(d[i].src)] += r[i];
    recv[static_cast<std::size_t>(d[i].dst)] += r[i];
  }
  for (int p = 0; p < 5; ++p) {
    EXPECT_LE(send[static_cast<std::size_t>(p)], 100.0 + 1e-6);
    EXPECT_LE(recv[static_cast<std::size_t>(p)], 100.0 + 1e-6);
  }
}

TEST(MaxMin, WorkConservingOnSaturatedPort) {
  // All flows from one sender: the sender must be fully used.
  std::vector<MaxMinDemand> d;
  for (int i = 0; i < 4; ++i) d.push_back({0, static_cast<PortIndex>(i + 1), 0});
  const auto r = maxmin_fair_rates(d, 5, 100.0);
  double total = 0;
  for (double x : r) total += x;
  EXPECT_NEAR(total, 100.0, 1e-6);
  for (double x : r) EXPECT_NEAR(x, 25.0, 1e-6);
}

}  // namespace
}  // namespace saath
