// Worker pool and concurrent campaigns: ThreadPool unit tests, and
// campaign outcomes that must be byte-identical to the serial run at any
// job count.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "parallel/thread_pool.h"
#include "sim/engine.h"
#include "trace/synth.h"
#include "workload/scenario.h"

namespace saath {
namespace {

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, EveryShardRunsExactlyOnce) {
  parallel::ThreadPool pool(4);
  constexpr int kShards = 64;
  std::vector<std::atomic<int>> hits(kShards);
  pool.parallel_for_shards(kShards,
                           [&](int s) { ++hits[static_cast<std::size_t>(s)]; });
  for (int s = 0; s < kShards; ++s)
    EXPECT_EQ(hits[static_cast<std::size_t>(s)].load(), 1);
}

TEST(ThreadPool, BarrierReusableAcrossJobsAndShardCounts) {
  parallel::ThreadPool pool(3);
  std::atomic<int> total{0};
  int expected = 0;
  for (const int shards : {1, 7, 2, 16, 3}) {
    pool.parallel_for_shards(shards, [&](int) { ++total; });
    expected += shards;
    EXPECT_EQ(total.load(), expected);  // barrier: all work done on return
  }
}

TEST(ThreadPool, ZeroShardsIsANoop) {
  parallel::ThreadPool pool(2);
  pool.parallel_for_shards(0, [&](int) { FAIL(); });
}

TEST(ThreadPool, MoreShardsThanWorkersLosesNoWork) {
  parallel::ThreadPool pool(2);
  constexpr int kShards = 100;
  std::vector<std::atomic<int>> hits(kShards);
  pool.parallel_for_shards(kShards,
                           [&](int s) { ++hits[static_cast<std::size_t>(s)]; });
  for (int s = 0; s < kShards; ++s)
    EXPECT_EQ(hits[static_cast<std::size_t>(s)].load(), 1);
}

TEST(ThreadPool, SingleWorkerRunsOnCallerThread) {
  parallel::ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for_shards(5, [&](int s) { order.push_back(s); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  parallel::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for_shards(
          8,
          [&](int s) {
            if (s == 3) throw std::runtime_error("shard 3 failed");
          }),
      std::runtime_error);
  // The failed barrier must still have completed; the pool is reusable.
  std::atomic<int> total{0};
  pool.parallel_for_shards(6, [&](int) { ++total; });
  EXPECT_EQ(total.load(), 6);
}

// ------------------------------------------------- concurrent campaigns

TEST(Campaign, OutcomesBitwiseIndependentOfJobs) {
  std::vector<workload::CampaignCell> cells;
  for (const char* scenario : {"fb-replay", "steady-churn"}) {
    for (const char* scheduler : {"saath", "aalo"}) {
      workload::CampaignCell cell;
      cell.scenario = scenario;
      cell.scheduler = scheduler;
      cell.params.set("coflows", "60");
      cells.push_back(std::move(cell));
    }
  }
  const auto serial = workload::run_campaign(cells, 1);
  const auto pooled = workload::run_campaign(cells, 8);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].agg.count(), pooled[i].agg.count());
    EXPECT_EQ(serial[i].agg.total_bytes(), pooled[i].agg.total_bytes());
    EXPECT_EQ(serial[i].agg.mean_cct_seconds(),
              pooled[i].agg.mean_cct_seconds());  // bitwise, not near
    EXPECT_EQ(serial[i].agg.max_cct_seconds(), pooled[i].agg.max_cct_seconds());
    EXPECT_EQ(serial[i].agg.makespan(), pooled[i].agg.makespan());
    EXPECT_EQ(serial[i].run.result.makespan, pooled[i].run.result.makespan);
    EXPECT_EQ(serial[i].run.rounds, pooled[i].run.rounds);
  }
}

TEST(Campaign, RunSchedulersMatchesSerialAtAnyJobCount) {
  const auto t = trace::synth_small_trace(10, 50, 7);
  const std::vector<std::string> names{"saath", "aalo", "sebf", "uc-tcp"};
  SimConfig cfg;
  cfg.port_bandwidth = 1e6;
  cfg.delta = msec(20);
  const auto serial = run_schedulers(t, names, cfg, 2.0, 1);
  const auto pooled = run_schedulers(t, names, cfg, 2.0, 4);
  ASSERT_EQ(serial.size(), pooled.size());
  for (const auto& [name, result] : serial) {
    const auto it = pooled.find(name);
    ASSERT_NE(it, pooled.end());
    ASSERT_EQ(result.coflows.size(), it->second.coflows.size());
    for (std::size_t i = 0; i < result.coflows.size(); ++i) {
      EXPECT_EQ(result.coflows[i].finish, it->second.coflows[i].finish);
    }
  }
}

}  // namespace
}  // namespace saath
