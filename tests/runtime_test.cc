#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/jobs.h"
#include "runtime/testbed.h"
#include "sched/saath.h"
#include "sched/uc_tcp.h"
#include "test_util.h"
#include "trace/synth.h"

namespace saath::runtime {
namespace {

using saath::testing::make_coflow;
using saath::testing::make_trace;
using saath::testing::toy_config;

TEST(Testbed, PipelineDelaysFirstSchedule) {
  // With a 1-epoch pipeline the flow idles for one δ before starting:
  // CCT = 10 s + one epoch.
  auto t = make_trace(2, {make_coflow(0, 0, {{0, 1, 1000}})});
  UcTcpScheduler inner;
  TestbedConfig cfg;
  cfg.sim = toy_config();  // delta = 100 ms
  const auto result = run_testbed(t, inner, cfg);
  ASSERT_EQ(result.coflows.size(), 1u);
  EXPECT_NEAR(result.coflows[0].cct_seconds(), 10.1, 0.02);
}

TEST(Testbed, ZeroDelayMatchesIdealSimulator) {
  auto t = make_trace(2, {make_coflow(0, 0, {{0, 1, 1000}})});
  UcTcpScheduler inner;
  TestbedConfig cfg;
  cfg.sim = toy_config();
  cfg.schedule_delay_epochs = 0;
  const auto testbed = run_testbed(t, inner, cfg);
  UcTcpScheduler fresh;
  const auto ideal = simulate(t, fresh, toy_config());
  EXPECT_NEAR(testbed.coflows[0].cct_seconds(), ideal.coflows[0].cct_seconds(),
              0.001);
}

TEST(Testbed, LongerPipelineCostsMore) {
  auto t = make_trace(2, {make_coflow(0, 0, {{0, 1, 1000}})});
  TestbedConfig fast;
  fast.sim = toy_config();
  fast.schedule_delay_epochs = 1;
  TestbedConfig slow;
  slow.sim = toy_config();
  slow.schedule_delay_epochs = 5;
  UcTcpScheduler i1, i2;
  const auto r_fast = run_testbed(t, i1, fast);
  const auto r_slow = run_testbed(t, i2, slow);
  EXPECT_GT(r_slow.coflows[0].cct_seconds(),
            r_fast.coflows[0].cct_seconds() + 0.3);
}

TEST(Testbed, CoordinatorOutageCoasts) {
  // Two coflows; the outage window covers the second's arrival, so it only
  // gets bandwidth once the coordinator recovers.
  auto t = make_trace(4, {make_coflow(0, 0, {{0, 1, 1000}}),
                          make_coflow(1, seconds(2), {{2, 3, 100}})});
  UcTcpScheduler inner;
  TestbedConfig cfg;
  cfg.sim = toy_config();
  cfg.coordinator_down_from = seconds(1);
  cfg.coordinator_down_until = seconds(5);
  const auto result = run_testbed(t, inner, cfg);
  // C0's schedule was delivered before the outage: it keeps running (~10s).
  EXPECT_NEAR(result.coflows[0].cct_seconds(), 10.1, 0.3);
  // C1 arrived during the outage: it waits until ~5 s for a schedule, so
  // its CCT is ~ (5 - 2) + 1 = 4 s rather than 1 s.
  EXPECT_GT(result.coflows[1].cct_seconds(), 3.5);
  EXPECT_LT(result.coflows[1].cct_seconds(), 4.8);
}

TEST(Testbed, SaathUnderTestbedStillBeatsAalo) {
  const auto t = trace::synth_small_trace(10, 40, 5);
  SimConfig sim;
  sim.port_bandwidth = 1e6;
  sim.delta = msec(20);
  TestbedConfig cfg;
  cfg.sim = sim;
  SaathScheduler saath;
  SaathScheduler aalo(aalo_config());
  const auto r_saath = run_testbed(t, saath, cfg);
  const auto r_aalo = run_testbed(t, aalo, cfg);
  const auto speedups = r_saath.speedup_over(r_aalo);
  EXPECT_GE(percentile(speedups, 50), 0.95);  // no regression in median
}

TEST(Testbed, PipelineForwardsEveryLifecycleHook) {
  // Schedulers learn membership from these hooks alone (sim/scheduler.h),
  // so the decorator must pass each one through to the coordinator.
  class Recording final : public Scheduler {
   public:
    std::string name() const override { return "recording"; }
    using Scheduler::schedule;
    void schedule(SimTime, std::span<CoflowState* const>, Fabric&,
                  RateAssignment&) override {}
    void on_coflow_arrival(CoflowState&, SimTime) override {
      seen.emplace_back("arrival");
    }
    void on_flow_complete(CoflowState&, FlowState&, SimTime) override {
      seen.emplace_back("flow");
    }
    void on_coflow_complete(CoflowState&, SimTime) override {
      seen.emplace_back("complete");
    }
    void on_coflow_quarantined(CoflowState&, SimTime) override {
      seen.emplace_back("quarantined");
    }
    std::vector<std::string> seen;
  };
  Recording inner;
  PipelinedScheduler pipelined(inner, TestbedConfig{});
  Scheduler& outer = pipelined;
  CoflowState c(make_coflow(0, 0, {{0, 1, 1000}}), FlowId{0});
  c.set_slot(0);
  outer.on_coflow_arrival(c, 0);
  outer.on_flow_complete(c, c.flows()[0], seconds(1));
  outer.on_coflow_complete(c, seconds(1));
  outer.on_coflow_quarantined(c, seconds(2));
  const std::vector<std::string> expected = {"arrival", "flow", "complete",
                                             "quarantined"};
  EXPECT_EQ(inner.seen, expected);
}

TEST(Jobs, SpeedupOneWhenSchedulesEqual) {
  SimResult r;
  r.scheduler = "x";
  CoflowRecord rec;
  rec.id = CoflowId{0};
  rec.arrival = 0;
  rec.finish = seconds(2);
  rec.width = 1;
  rec.total_bytes = 10;
  rec.flow_fcts_seconds = {2.0};
  rec.flow_sizes = {10.0};
  r.coflows = {rec};
  const auto jobs = evaluate_jobs(r, r);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].jct_speedup, 1.0);
}

TEST(Jobs, ShuffleHeavyJobsGainMore) {
  // Shuffle twice as fast: a job with f~1 speeds up ~2x, f~0 barely moves.
  SimResult fast, slow;
  fast.scheduler = "fast";
  slow.scheduler = "slow";
  for (int i = 0; i < 2000; ++i) {
    CoflowRecord a;
    a.id = CoflowId{i};
    a.finish = seconds(1);
    a.width = 1;
    a.total_bytes = 1;
    CoflowRecord b = a;
    b.finish = seconds(2);
    fast.coflows.push_back(a);
    slow.coflows.push_back(b);
  }
  const auto jobs = evaluate_jobs(fast, slow);
  const auto by_bucket = summarize_jct(jobs);
  // Monotone: heavier shuffle buckets gain more.
  EXPECT_GT(by_bucket.p50[3], by_bucket.p50[0]);
  EXPECT_GT(by_bucket.p50[3], 1.5);
  EXPECT_LT(by_bucket.p50[0], 1.4);
  EXPECT_GT(by_bucket.p50[kNumShuffleBuckets], 1.0);  // "All"
  for (int b = 0; b <= kNumShuffleBuckets; ++b) {
    EXPECT_GE(by_bucket.p90[static_cast<std::size_t>(b)],
              by_bucket.p50[static_cast<std::size_t>(b)]);
  }
}

TEST(Jobs, BucketLabels) {
  EXPECT_STREQ(shuffle_bucket_label(0), "<25%");
  EXPECT_STREQ(shuffle_bucket_label(3), ">=75%");
  EXPECT_STREQ(shuffle_bucket_label(kNumShuffleBuckets), "All");
}

TEST(Jobs, DeterministicPerSeed) {
  SimResult a, b;
  a.scheduler = "a";
  b.scheduler = "b";
  for (int i = 0; i < 50; ++i) {
    CoflowRecord r;
    r.id = CoflowId{i};
    r.finish = seconds(1 + i % 3);
    r.width = 1;
    r.total_bytes = 1;
    a.coflows.push_back(r);
    CoflowRecord r2 = r;
    r2.finish = seconds(2 + i % 3);
    b.coflows.push_back(r2);
  }
  const auto j1 = evaluate_jobs(a, b);
  const auto j2 = evaluate_jobs(a, b);
  ASSERT_EQ(j1.size(), j2.size());
  for (std::size_t i = 0; i < j1.size(); ++i) {
    EXPECT_DOUBLE_EQ(j1[i].shuffle_fraction, j2[i].shuffle_fraction);
    EXPECT_DOUBLE_EQ(j1[i].jct_speedup, j2[i].jct_speedup);
  }
}

TEST(Jobs, CustomBucketWeights) {
  SimResult a, b;
  a.scheduler = "a";
  b.scheduler = "b";
  for (int i = 0; i < 500; ++i) {
    CoflowRecord r;
    r.id = CoflowId{i};
    r.finish = seconds(1);
    r.width = 1;
    r.total_bytes = 1;
    a.coflows.push_back(r);
    b.coflows.push_back(r);
  }
  JobModelConfig cfg;
  cfg.bucket_weights = {0, 0, 0, 1.0};  // everything shuffle-heavy
  const auto jobs = evaluate_jobs(a, b, cfg);
  for (const auto& j : jobs) {
    EXPECT_EQ(j.bucket, 3);
    EXPECT_GE(j.shuffle_fraction, 0.75);
  }
}

}  // namespace
}  // namespace saath::runtime
