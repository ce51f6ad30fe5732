#include <gtest/gtest.h>

#include <cmath>

#include "sched/queue_structure.h"

namespace saath {
namespace {

TEST(QueueStructure, DefaultThresholdsGrowExponentially) {
  QueueStructure qs;  // S=10MB, E=10, K=10
  EXPECT_DOUBLE_EQ(qs.hi_threshold(0), 10e6);
  EXPECT_DOUBLE_EQ(qs.hi_threshold(1), 100e6);
  EXPECT_DOUBLE_EQ(qs.hi_threshold(2), 1e9);
  EXPECT_TRUE(std::isinf(qs.hi_threshold(9)));
  EXPECT_DOUBLE_EQ(qs.lo_threshold(0), 0.0);
  EXPECT_DOUBLE_EQ(qs.lo_threshold(1), 10e6);
}

TEST(QueueStructure, TotalBytesRule) {
  QueueStructure qs;
  EXPECT_EQ(qs.queue_for_total_bytes(0), 0);
  EXPECT_EQ(qs.queue_for_total_bytes(9.99e6), 0);
  EXPECT_EQ(qs.queue_for_total_bytes(10e6), 1);
  EXPECT_EQ(qs.queue_for_total_bytes(99e6), 1);
  EXPECT_EQ(qs.queue_for_total_bytes(1e18), 9);
}

TEST(QueueStructure, PerFlowRuleDividesThresholdByWidth) {
  QueueStructure qs;
  // Width 100: per-flow threshold for Q0 is 100KB.
  EXPECT_EQ(qs.queue_for_max_flow_bytes(50e3, 100), 0);
  EXPECT_EQ(qs.queue_for_max_flow_bytes(100e3, 100), 1);
  // Same bytes, width 1: still in Q0 (10MB threshold).
  EXPECT_EQ(qs.queue_for_max_flow_bytes(100e3, 1), 0);
}

TEST(QueueStructure, PerFlowRuleFasterThanTotalBytes) {
  // Fig 5: a 4-flow CoFlow where only 2 flows progressed. Total-bytes says
  // queue 0 until 10MB aggregate; per-flow demotes once any flow hits
  // 10MB/4 = 2.5MB.
  QueueStructure qs;
  const double per_flow_sent = 3e6;
  const int width = 4;
  EXPECT_EQ(qs.queue_for_total_bytes(2 * per_flow_sent), 0);
  EXPECT_EQ(qs.queue_for_max_flow_bytes(per_flow_sent, width), 1);
}

TEST(QueueStructure, CustomConfig) {
  QueueStructure qs({.num_queues = 3, .start_threshold = 100, .growth = 2.0});
  EXPECT_DOUBLE_EQ(qs.hi_threshold(0), 100);
  EXPECT_DOUBLE_EQ(qs.hi_threshold(1), 200);
  EXPECT_TRUE(std::isinf(qs.hi_threshold(2)));
  EXPECT_EQ(qs.queue_for_total_bytes(150), 1);
  EXPECT_EQ(qs.queue_for_total_bytes(250), 2);
}

TEST(QueueStructure, MinResidenceSeconds) {
  QueueStructure qs({.num_queues = 3, .start_threshold = 1000, .growth = 10.0});
  // Q0: 1000 bytes at 100 B/s = 10 s.
  EXPECT_DOUBLE_EQ(qs.min_residence_seconds(0, 100.0), 10.0);
  // Q1: (10000 - 1000)/100 = 90 s.
  EXPECT_DOUBLE_EQ(qs.min_residence_seconds(1, 100.0), 90.0);
  // Last queue: finite via extrapolation.
  EXPECT_TRUE(std::isfinite(qs.min_residence_seconds(2, 100.0)));
  EXPECT_GT(qs.min_residence_seconds(2, 100.0), 0.0);
}

TEST(QueueStructure, SingleQueueDegeneratesToFifoBucket) {
  QueueStructure qs({.num_queues = 1, .start_threshold = 100, .growth = 2.0});
  EXPECT_EQ(qs.queue_for_total_bytes(1e12), 0);
  EXPECT_TRUE(std::isinf(qs.hi_threshold(0)));
}

TEST(QueuePopulation, DeltasMatchRecount) {
  QueuePopulation pop(4);
  EXPECT_EQ(pop.total(), 0);
  pop.add(0);
  pop.add(0);
  pop.add(2);
  EXPECT_EQ(pop.count(0), 2);
  EXPECT_EQ(pop.count(2), 1);
  EXPECT_EQ(pop.total(), 3);
  pop.move(0, 3);
  EXPECT_EQ(pop.count(0), 1);
  EXPECT_EQ(pop.count(3), 1);
  pop.move(3, 3);  // no-op
  EXPECT_EQ(pop.count(3), 1);
  pop.remove(2);
  EXPECT_EQ(pop.count(2), 0);
  EXPECT_EQ(pop.total(), 2);
}

}  // namespace
}  // namespace saath
