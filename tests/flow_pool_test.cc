// SoA FlowPool invariants (ISSUE 8 tentpole): the structure-of-arrays
// refactor must be observationally invisible — every trajectory bit, every
// digest, every handle stays exactly what the AoS layout produced.
//
//  (1) Digest identity across the full matrix: {reference engine,
//      production engine scheduling every epoch, production engine with
//      its skip} × {reference scheduler, full route, delta route} ×
//      {saath, aalo, uc-tcp} all hash to one digest per scheduler. The
//      reference scheduler on the reference engine is the oracle.
//  (2) Checkpoint-shaped round-trip: trajectory scalars captured from a
//      mid-run CoflowState and written into a fresh one via
//      restore_flow_progress reproduce the same BITS (sent_base, rate,
//      anchor, predicted_finish, and sent() at later instants).
//  (3) Handle stability: FlowState handles and the pool lanes they index
//      never move for the CoFlow's lifetime, across rate churn and
//      completions.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "reference/reference.h"
#include "replay/journal.h"
#include "sched/aalo.h"
#include "sched/saath.h"
#include "sched/uc_tcp.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/synth.h"
#include "workload/sources.h"

namespace saath {
namespace {

using testing::make_coflow;

trace::Trace matrix_trace() {
  trace::SynthConfig cfg;
  cfg.num_ports = 24;
  cfg.num_coflows = 60;
  cfg.arrival_span = seconds(4);
  cfg.seed = 77;
  return trace::synth_fb_trace(cfg);
}

/// Production, or (`reference`) the from-scratch reference scheduler.
std::unique_ptr<Scheduler> matrix_scheduler(const std::string& which,
                                            bool reference) {
  if (which == "saath") {
    if (reference) return std::make_unique<reference::ReferenceSaath>();
    return std::make_unique<SaathScheduler>();
  }
  if (which == "aalo") {
    if (reference) return std::make_unique<reference::ReferenceAalo>();
    return std::make_unique<AaloScheduler>();
  }
  return std::make_unique<UcTcpScheduler>();
}

TEST(FlowPool, DigestIdentityAcrossEngineAndSchedulerMatrix) {
  enum class Side { kReference, kFullRoute, kDeltaRoute };
  const auto t = matrix_trace();
  for (const std::string which : {"saath", "aalo", "uc-tcp"}) {
    // Oracle: the reference scheduler on the reference engine (scan
    // advance, every epoch scheduled) — the least clever combination.
    std::uint64_t oracle = 0;
    bool have_oracle = false;
    for (const testing::Loop loop :
         {testing::Loop::kReference, testing::Loop::kEveryEpoch,
          testing::Loop::kProduction}) {
      for (const Side side :
           {Side::kReference, Side::kFullRoute, Side::kDeltaRoute}) {
        // uc-tcp has one route and no reference model; collapse the axis.
        if (which == "uc-tcp" && side != Side::kDeltaRoute) continue;
        auto sched = matrix_scheduler(which, side == Side::kReference);
        reference::FullRoute full_route(*sched);
        Scheduler& driven = side == Side::kFullRoute ? full_route : *sched;
        // Every side of a kReference cell runs on the reference engine.
        const SimResult r = testing::run_on(
            loop, /*oracle=*/true,
            std::make_shared<workload::TraceSource>(trace::Trace(t)), driven,
            SimConfig{});
        const std::uint64_t d = replay::result_digest(r);
        if (!have_oracle) {
          oracle = d;
          have_oracle = true;
        }
        const char* label = side == Side::kReference   ? "/reference"
                            : side == Side::kFullRoute ? "/full-route"
                                                       : "/delta-route";
        EXPECT_EQ(d, oracle) << which << "/" << testing::loop_name(loop)
                             << label;
      }
    }
  }
}

TEST(FlowPool, RestoreFlowProgressRoundTripsTrajectoryBits) {
  const CoflowSpec spec = make_coflow(
      7, seconds(1),
      {{0, 1, 1000}, {1, 2, 777}, {2, 0, 123457}, {0, 2, 1}});

  // Drive a "source" CoFlow through an awkward rate history: fractional
  // rates, mid-epoch re-rates, one zero-rate flow, one completion.
  CoflowState src(spec, FlowId{100});
  auto flows = src.flows();
  flows[0].set_rate(333.333, seconds(1));
  flows[1].set_rate(41.7, seconds(1));
  flows[2].set_rate(9876.5432, seconds(1));
  flows[0].set_rate(100.1, seconds(2) + 137);   // off-grid fold instant
  flows[2].set_rate(0.003, seconds(2) + 137);
  flows[3].set_rate(10.0, seconds(2) + 137);
  src.on_flow_complete(flows[3], flows[3].predicted_finish());
  flows[1].set_rate(59.0, seconds(3) + 999);

  // Capture the live trajectory bits, checkpoint-style.
  const FlowPool& pool = src.pool();
  struct Bits {
    double sent_base;
    Rate rate;
    SimTime anchor;
    SimTime predicted_finish;
  };
  std::vector<Bits> captured;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    captured.push_back({pool.sent_base[i], pool.rate[i], pool.anchor[i],
                        pool.predicted_finish[i]});
  }

  // Restore into a fresh state (same spec, fresh pool) and compare BITS.
  CoflowState dst(spec, FlowId{100});
  for (std::size_t i = 0; i < captured.size(); ++i) {
    if (src.flows()[i].finished()) {
      dst.restore_flow_finished(i, src.flows()[i].finish_time());
      continue;
    }
    dst.restore_flow_progress(i, captured[i].sent_base, captured[i].rate,
                              captured[i].anchor,
                              captured[i].predicted_finish);
  }
  const FlowPool& rpool = dst.pool();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(std::memcmp(&rpool.sent_base[i], &pool.sent_base[i],
                          sizeof(double)), 0) << "flow " << i;
    EXPECT_EQ(std::memcmp(&rpool.rate[i], &pool.rate[i], sizeof(Rate)), 0)
        << "flow " << i;
    EXPECT_EQ(rpool.anchor[i], pool.anchor[i]) << "flow " << i;
    EXPECT_EQ(rpool.predicted_finish[i], pool.predicted_finish[i])
        << "flow " << i;
    EXPECT_EQ(rpool.finished[i] != 0, pool.finished[i] != 0) << "flow " << i;
    // The closed-form evaluation must agree bit-for-bit at later instants.
    for (const SimTime probe :
         {seconds(4), seconds(4) + 1, seconds(17) + 313}) {
      const double a = pool.sent(i, probe);
      const double b = rpool.sent(i, probe);
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << "flow " << i << " at t=" << probe;
    }
  }
}

TEST(FlowPool, HandlesAndLanesAreStableAcrossChurn) {
  CoflowState c(make_coflow(0, 0, {{0, 1, 5000}, {1, 0, 5000},
                                   {0, 2, 5000}}),
                FlowId{0});
  const FlowPool& pool = c.pool();
  const FlowState* handles[3] = {&c.flows()[0], &c.flows()[1], &c.flows()[2]};
  const double* rate_lane = pool.rate;
  const double* sent_lane = pool.sent_base;

  for (int e = 0; e < 100; ++e) {
    for (auto& f : c.flows()) {
      if (!f.finished()) f.set_rate(10.0 + e, seconds(e));
    }
  }
  c.on_flow_complete(c.flows()[1], c.flows()[1].predicted_finish());

  // Neither the handles nor the pool lanes moved, and index identity holds.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(&c.flows()[i], handles[i]);
    EXPECT_EQ(c.flows()[i].pool_index(), static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(pool.rate, rate_lane);
  EXPECT_EQ(pool.sent_base, sent_lane);
  EXPECT_EQ(c.flows()[0].rate(), pool.rate[0]);
}

}  // namespace
}  // namespace saath
