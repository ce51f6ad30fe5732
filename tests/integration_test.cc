// Cross-scheduler integration: the qualitative claims of §6 must hold on
// synthesized traces (shape, not absolute numbers).
#include <gtest/gtest.h>

#include "analysis/deviation.h"
#include "coflow/job.h"
#include "analysis/metrics.h"
#include "sched/factory.h"
#include "sim/engine.h"
#include "trace/synth.h"
#include "workload/dag_source.h"

namespace saath {
namespace {

/// A mid-size busy trace: big enough for queueing effects, small enough to
/// keep the whole suite fast.
trace::Trace busy_trace(std::uint64_t seed) {
  trace::SynthConfig cfg;
  cfg.num_ports = 30;
  cfg.num_coflows = 200;
  cfg.arrival_span = seconds(8);
  cfg.seed = seed;
  return synth_fb_trace(cfg);
}

SimConfig sim_config() {
  SimConfig cfg;
  cfg.delta = msec(8);
  return cfg;
}

class Integration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new trace::Trace(busy_trace(101));
    results_ = new std::map<std::string, SimResult>(run_schedulers(
        *trace_, {"aalo", "saath", "uc-tcp", "sebf", "saath-an-fifo"},
        sim_config()));
  }
  static void TearDownTestSuite() {
    delete results_;
    delete trace_;
    results_ = nullptr;
    trace_ = nullptr;
  }

  static trace::Trace* trace_;
  static std::map<std::string, SimResult>* results_;
};

trace::Trace* Integration::trace_ = nullptr;
std::map<std::string, SimResult>* Integration::results_ = nullptr;

TEST_F(Integration, SaathBeatsAaloInMedian) {
  const auto s = summarize_speedup(results_->at("saath"), results_->at("aalo"));
  EXPECT_GT(s.median, 1.0);
  EXPECT_GT(s.p90, s.median);
}

TEST_F(Integration, SaathCrushesUcTcp) {
  const auto s =
      summarize_speedup(results_->at("saath"), results_->at("uc-tcp"));
  EXPECT_GT(s.median, 2.5);  // paper: orders of magnitude on real traces
  EXPECT_GT(s.p90, 10.0);
}

TEST_F(Integration, SaathWithinReachOfOfflineSebf) {
  // §6.1: Saath, though online, lands close to clairvoyant SEBF. Our SEBF
  // is an idealized Varys (perfect remaining-size knowledge every epoch),
  // so on a deliberately backlogged trace it outruns anything
  // non-clairvoyant; require Saath to capture a meaningful share of its
  // improvement rather than parity.
  const auto saath =
      summarize_speedup(results_->at("saath"), results_->at("aalo"));
  const auto sebf = summarize_speedup(results_->at("sebf"), results_->at("aalo"));
  EXPECT_GT(saath.median, 0.4 * sebf.median);
}

TEST_F(Integration, FullSaathBeatsAnFifoAblation) {
  const auto full =
      summarize_speedup(results_->at("saath"), results_->at("aalo"));
  const auto ablated =
      summarize_speedup(results_->at("saath-an-fifo"), results_->at("aalo"));
  EXPECT_GE(full.median, ablated.median - 0.05);
}

TEST_F(Integration, SaathReducesFctDeviation) {
  // Fig 13: Saath's all-or-none collapses the FCT spread of equal-length
  // CoFlows relative to Aalo.
  const double saath_sync = fraction_fully_synchronized(results_->at("saath"));
  const double aalo_sync = fraction_fully_synchronized(results_->at("aalo"));
  EXPECT_GE(saath_sync, aalo_sync);
}

TEST_F(Integration, AllSchedulersFinishEverything) {
  for (const auto& [name, result] : *results_) {
    EXPECT_EQ(result.coflows.size(), trace_->coflows.size()) << name;
  }
}

TEST(IntegrationSensitivity, HigherContentionWidensSaathLead) {
  // Fig 14(d): speeding up arrivals increases contention; Saath's edge
  // over Aalo should not shrink materially.
  const auto base = busy_trace(202);
  const auto fast = base.scaled_arrivals(4.0);
  auto cfg = sim_config();
  const auto r_base = run_schedulers(base, {"aalo", "saath"}, cfg);
  const auto r_fast = run_schedulers(fast, {"aalo", "saath"}, cfg);
  const auto lead_base =
      summarize_speedup(r_base.at("saath"), r_base.at("aalo")).median;
  const auto lead_fast =
      summarize_speedup(r_fast.at("saath"), r_fast.at("aalo")).median;
  EXPECT_GT(lead_fast, 0.8 * lead_base);
}

TEST(IntegrationDag, StagePipelineCompletes) {
  // A 3-stage map-reduce-reduce DAG released stage by stage by a DagSource.
  JobSpec job;
  job.id = JobId{1};
  job.stages.push_back({{{0, 1, 100'000}, {0, 2, 100'000}}, {}});
  job.stages.push_back({{{1, 3, 50'000}}, {0}});
  job.stages.push_back({{{3, 0, 25'000}}, {1}});
  job.validate();

  auto dag = std::make_shared<workload::DagSource>("dag", 4);
  dag->add_job(job);
  auto sched = make_scheduler("saath");
  SimConfig cfg;
  cfg.port_bandwidth = 1e6;
  cfg.delta = msec(10);
  const auto result = simulate(dag, *sched, cfg);
  EXPECT_EQ(result.coflows.size(), 3u);
  EXPECT_TRUE(dag->all_jobs_finished());
  // Stages ran strictly in order.
  EXPECT_LT(result.coflows[0].finish, result.coflows[1].finish);
  EXPECT_LT(result.coflows[1].finish, result.coflows[2].finish);
}

}  // namespace
}  // namespace saath
