// Streaming workload API: source ordering, materialized-vs-streamed
// bit-identity, stream-vs-reference-engine identity for dynamics, data gates
// and reactive releases, combinators, result sinks, and the scenario
// registry.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "reference/engine.h"
#include "reference/reference.h"
#include "sched/saath.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/synth.h"
#include "workload/combinators.h"
#include "workload/dag_source.h"
#include "workload/scenario.h"
#include "workload/sink.h"
#include "workload/sources.h"

namespace saath {
namespace {

using workload::WorkloadEvent;

void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.coflows.size(), b.coflows.size()) << what;
  EXPECT_EQ(a.makespan, b.makespan) << what;
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    const auto& ra = a.coflows[i];
    const auto& rb = b.coflows[i];
    ASSERT_EQ(ra.id, rb.id) << what << " record " << i;
    EXPECT_EQ(ra.arrival, rb.arrival) << what << " coflow " << ra.id.value;
    EXPECT_EQ(ra.finish, rb.finish) << what << " coflow " << ra.id.value;
    EXPECT_EQ(ra.width, rb.width) << what << " coflow " << ra.id.value;
    ASSERT_EQ(ra.flow_fcts_seconds.size(), rb.flow_fcts_seconds.size())
        << what << " coflow " << ra.id.value;
    for (std::size_t f = 0; f < ra.flow_fcts_seconds.size(); ++f) {
      EXPECT_EQ(ra.flow_fcts_seconds[f], rb.flow_fcts_seconds[f])
          << what << " coflow " << ra.id.value << " flow " << f;
    }
  }
}

/// Schedulers of the identity matrix: {saath, aalo} x {production, the
/// from-scratch reference model}.
std::unique_ptr<Scheduler> matrix_scheduler(const std::string& which,
                                            bool reference) {
  if (which == "saath") {
    if (reference) return std::make_unique<reference::ReferenceSaath>();
    return std::make_unique<SaathScheduler>();
  }
  if (reference) return std::make_unique<reference::ReferenceAalo>();
  return std::make_unique<SaathScheduler>(aalo_config());
}

trace::Trace matrix_trace() {
  trace::SynthConfig cfg;
  cfg.num_ports = 40;
  cfg.num_coflows = 120;
  cfg.arrival_span = seconds(8);
  cfg.seed = 77;
  return trace::synth_fb_trace(cfg);
}

// ------------------------------------------------------------ TraceSource

TEST(TraceSource, EmitsArrivalsInArrivalIdOrder) {
  auto t = testing::make_trace(
      4, {testing::make_coflow(0, msec(20), {{0, 1, 100}}),
          testing::make_coflow(1, msec(5), {{1, 2, 100}}),
          testing::make_coflow(2, msec(20), {{2, 3, 100}}),
          testing::make_coflow(3, msec(1), {{0, 3, 100}})});
  workload::TraceSource src(t);
  SimTime last = 0;
  std::int64_t last_id = -1;
  int count = 0;
  while (src.peek_next_time() != kNever) {
    const SimTime peek = src.peek_next_time();
    WorkloadEvent ev = src.next();
    EXPECT_EQ(ev.kind, WorkloadEvent::Kind::kArrival);
    EXPECT_EQ(ev.time, peek);
    EXPECT_GE(ev.time, last);
    if (ev.time == last) {
      EXPECT_GT(ev.coflow.id.value, last_id);
    }
    last = ev.time;
    last_id = ev.coflow.id.value;
    ++count;
  }
  EXPECT_EQ(count, 4);
}

TEST(TraceSource, SharedAndOwnedEmitTheSameStream) {
  const auto t = matrix_trace();
  auto shared = std::make_shared<const trace::Trace>(t);
  workload::TraceSource owned{trace::Trace(t)};
  workload::TraceSource aliased{shared};
  while (owned.peek_next_time() != kNever) {
    ASSERT_EQ(owned.peek_next_time(), aliased.peek_next_time());
    const auto a = owned.next();
    const auto b = aliased.next();
    ASSERT_EQ(a.coflow.id, b.coflow.id);
    ASSERT_EQ(a.coflow.flows.size(), b.coflow.flows.size());
  }
  EXPECT_EQ(aliased.peek_next_time(), kNever);
}

// ------------------------------------ materialized vs streamed identity

TEST(StreamIdentity, FbTraceMaterializedStreamedAndReferenceEngine) {
  const auto t = matrix_trace();
  for (const std::string which : {"saath", "aalo"}) {
    for (const bool reference : {false, true}) {
      const SimConfig cfg;
      const std::string what =
          which + (reference ? "/reference" : "/production");
      auto s1 = matrix_scheduler(which, reference);
      auto s2 = matrix_scheduler(which, reference);
      auto s3 = matrix_scheduler(which, reference);
      const auto materialized = simulate(t, *s1, cfg);
      const auto streamed = simulate(
          std::make_shared<workload::TraceSource>(trace::Trace(t)), *s2, cfg);
      expect_identical(materialized, streamed, what + " streamed");
      expect_identical(
          streamed,
          reference::reference_simulate(
              std::make_shared<workload::TraceSource>(trace::Trace(t)), *s3,
              cfg),
          what + " reference engine");
    }
  }
}

TEST(StreamIdentity, DynamicsAndDataGatesAsStreamEvents) {
  const int ports = 16;
  auto t = testing::make_trace(
      ports, {testing::make_coflow(0, 0, {{0, 1, 40 * kMB}, {2, 3, 40 * kMB}}),
              testing::make_coflow(1, msec(50), {{4, 5, 30 * kMB}}),
              testing::make_coflow(2, msec(100),
                                   {{0, 5, 20 * kMB}, {6, 7, 20 * kMB}}),
              testing::make_coflow(3, msec(200), {{2, 7, 25 * kMB}}),
              testing::make_coflow(4, msec(300), {{8, 9, 10 * kMB}})});
  const std::vector<DynamicsEvent> dynamics = {
      {msec(120), DynamicsEvent::Kind::kStragglerStart, 0, 0.25},
      {msec(150), DynamicsEvent::Kind::kNodeFailure, 2, 1.0},
      {msec(400), DynamicsEvent::Kind::kStragglerEnd, 0, 1.0},
  };
  const std::map<std::int64_t, SimTime> gates = {{2, msec(260)},
                                                 {4, msec(500)}};
  // Arrivals carry their data_ready; the dynamics ride a ScriptSource
  // merged in.
  const auto make_stream = [&] {
    std::vector<WorkloadEvent> script;
    for (const auto& ev : dynamics) {
      script.push_back(WorkloadEvent::dynamics_at(ev));
    }
    return std::make_shared<workload::MergeSource>(
        std::vector<std::shared_ptr<workload::WorkloadSource>>{
            testing::stream_of(t, {}, gates),
            std::make_shared<workload::ScriptSource>("script", ports,
                                                     std::move(script))},
        /*reassign_ids=*/false);
  };

  for (const std::string which : {"saath", "aalo"}) {
    for (const bool every_epoch : {false, true}) {
      SimConfig cfg = testing::toy_config();
      cfg.port_bandwidth = gbps(0.8);
      auto s1 = matrix_scheduler(which, false);
      auto s2 = matrix_scheduler(which, false);
      const auto streamed = testing::run_on(
          every_epoch ? testing::Loop::kEveryEpoch : testing::Loop::kProduction,
          false, make_stream(), *s1, cfg);
      const auto reference_run =
          reference::reference_simulate(make_stream(), *s2, cfg);
      expect_identical(streamed, reference_run,
                       which + (every_epoch ? "/everyepoch" : "/skip"));
    }
  }
}

TEST(StreamIdentity, DataGatesCarriedOnArrivalEvents) {
  // Gates carried as WorkloadEvent::data_ready + an explicit kDataAvailable
  // release, on both engines.
  const int ports = 8;
  auto t = testing::make_trace(
      ports, {testing::make_coflow(0, 0, {{0, 1, 30 * kMB}}),
              testing::make_coflow(1, msec(40), {{2, 3, 30 * kMB}}),
              testing::make_coflow(2, msec(80), {{4, 5, 15 * kMB}})});
  const auto make_stream = [&] {
    std::vector<WorkloadEvent> events;
    for (const auto& spec : t.coflows) {
      WorkloadEvent ev = WorkloadEvent::arrival(spec);
      if (spec.id.value == 1) ev.data_ready = msec(300);
      if (spec.id.value == 2) ev.data_ready = kNever;  // explicit release
      events.push_back(std::move(ev));
    }
    events.push_back(WorkloadEvent::data_available(CoflowId{2}, msec(450)));
    return std::make_shared<workload::ScriptSource>("gated", ports,
                                                    std::move(events));
  };
  SaathScheduler s1;
  SaathScheduler s2;
  const auto streamed = simulate(make_stream(), s1, {});
  expect_identical(streamed,
                   reference::reference_simulate(make_stream(), s2, {}),
                   "data_ready arrivals");
  // The gates held: neither gated CoFlow finished before its release.
  EXPECT_GT(streamed.coflows[1].finish, msec(300));
  EXPECT_GT(streamed.coflows[2].finish, msec(450));
}

TEST(StreamIdentity, GateReleaseInTheSameEpochPullIsNotClobbered) {
  // Arrival (gated until an explicit event) and its kDataAvailable release
  // land in the same epoch's due-event pull: the admission must not
  // clobber the already-recorded release with the arrival's kNever, or
  // the CoFlow stays gated forever and the run hits max_sim_time.
  std::vector<WorkloadEvent> events;
  WorkloadEvent gated = WorkloadEvent::arrival(
      testing::make_coflow(0, msec(10), {{0, 1, 5 * kMB}}));
  gated.data_ready = kNever;
  events.push_back(std::move(gated));
  events.push_back(WorkloadEvent::data_available(CoflowId{0}, msec(10)));
  SaathScheduler sched;
  SimConfig cfg;
  cfg.max_sim_time = seconds(60);
  const auto result = simulate(
      std::make_shared<workload::ScriptSource>("same-epoch", 4,
                                               std::move(events)),
      sched, cfg);
  ASSERT_EQ(result.coflows.size(), 1u);
  EXPECT_GT(result.coflows[0].finish, msec(10));
}

TEST(MergeSource, RemapsDataAvailableReleasesUnderReassignment) {
  // Under dense re-identification the release must follow its arrival into
  // the new id space, or it releases a stale id and the real CoFlow hangs.
  std::vector<WorkloadEvent> scripted;
  WorkloadEvent gated = WorkloadEvent::arrival(
      testing::make_coflow(7, msec(20), {{2, 3, 5 * kMB}}));
  gated.data_ready = kNever;
  scripted.push_back(std::move(gated));
  scripted.push_back(WorkloadEvent::data_available(CoflowId{7}, msec(400)));
  auto merged = std::make_shared<workload::MergeSource>(
      std::vector<std::shared_ptr<workload::WorkloadSource>>{
          std::make_shared<workload::TraceSource>(testing::make_trace(
              4, {testing::make_coflow(0, 0, {{0, 1, 5 * kMB}})})),
          std::make_shared<workload::ScriptSource>("gated", 4,
                                                   std::move(scripted))});
  SaathScheduler sched;
  SimConfig cfg;
  cfg.max_sim_time = seconds(60);
  const auto result = simulate(merged, sched, cfg);
  ASSERT_EQ(result.coflows.size(), 2u);
  // The gated CoFlow (re-identified id 1) starts only at its 400ms release.
  EXPECT_GE(result.coflows[1].finish, msec(400));
}

// ------------------------------------------------------------ SynthSource

TEST(SynthSource, StreamedEqualsMaterializedThenReplayed) {
  workload::SynthStreamConfig cfg;
  cfg.shape.num_ports = 24;
  cfg.num_coflows = 150;
  cfg.seed = 5;
  cfg.mean_gap = msec(25);

  // Event-level equivalence: the same seeded config materialized into a
  // trace replays as the identical arrival stream.
  workload::SynthSource direct(cfg);
  workload::SynthSource for_trace(cfg);
  auto materialized = workload::materialize_arrivals(for_trace);
  ASSERT_EQ(materialized.coflows.size(), 150u);
  workload::TraceSource replay{trace::Trace(materialized)};
  while (direct.peek_next_time() != kNever) {
    ASSERT_EQ(direct.peek_next_time(), replay.peek_next_time());
    const auto a = direct.next();
    const auto b = replay.next();
    ASSERT_EQ(a.coflow.id, b.coflow.id);
    ASSERT_EQ(a.coflow.arrival, b.coflow.arrival);
    ASSERT_EQ(a.coflow.flows.size(), b.coflow.flows.size());
    for (std::size_t f = 0; f < a.coflow.flows.size(); ++f) {
      EXPECT_EQ(a.coflow.flows[f].src, b.coflow.flows[f].src);
      EXPECT_EQ(a.coflow.flows[f].dst, b.coflow.flows[f].dst);
      EXPECT_EQ(a.coflow.flows[f].size, b.coflow.flows[f].size);
    }
  }
  EXPECT_EQ(replay.peek_next_time(), kNever);

  // Engine-level equivalence, both schedulers.
  for (const std::string which : {"saath", "aalo"}) {
    auto s1 = matrix_scheduler(which, false);
    auto s2 = matrix_scheduler(which, false);
    const auto streamed =
        simulate(std::make_shared<workload::SynthSource>(cfg), *s1, {});
    const auto replayed = simulate(materialized, *s2, {});
    expect_identical(streamed, replayed, "synth engine/" + which);
  }
}

TEST(SynthSource, ArrivalsAreMonotoneWithAscendingIds) {
  workload::SynthStreamConfig cfg;
  cfg.shape.num_ports = 12;
  cfg.num_coflows = 400;
  cfg.seed = 9;
  cfg.mean_gap = usec(800);
  cfg.p_burst = 0.7;  // plenty of same-instant ties
  cfg.burst_gap = usec(1);
  workload::SynthSource src(cfg);
  SimTime last = 0;
  std::int64_t last_id = -1;
  while (src.peek_next_time() != kNever) {
    const auto ev = src.next();
    EXPECT_GE(ev.time, last);
    EXPECT_GT(ev.coflow.id.value, last_id);
    last = ev.time;
    last_id = ev.coflow.id.value;
  }
  EXPECT_EQ(last_id, 399);
}

// ----------------------------------------------------------- combinators

TEST(ScaleArrivals, MatchesMaterializedScaledTrace) {
  const auto t = matrix_trace();
  auto shared = std::make_shared<const trace::Trace>(t);
  for (const double a : {0.5, 2.0, 4.0}) {
    SaathScheduler s1;
    SaathScheduler s2;
    const auto materialized = simulate(t.scaled_arrivals(a), s1, {});
    const auto streamed = simulate(
        std::make_shared<workload::ScaleArrivals>(
            std::make_shared<workload::TraceSource>(shared), a),
        s2, {});
    expect_identical(materialized, streamed, "scale " + std::to_string(a));
  }
}

TEST(ScaleArrivals, CollapsedTicksKeepArrivalTiesAscendingById) {
  // Heavy compression maps distinct inner instants onto one output
  // microsecond; with a jittered inner the pre-fix emission order could
  // put a higher id first at the collapsed tick and abort the engine's
  // ordering spot-check. The one-tick batch re-sort must keep ids
  // ascending at ties and the run alive.
  auto t = matrix_trace();
  auto scaled = std::make_shared<workload::ScaleArrivals>(
      std::make_shared<workload::JitterSource>(
          std::make_shared<workload::TraceSource>(std::move(t)), usec(500),
          42),
      1000.0);
  SimTime last = 0;
  std::int64_t last_id_at_time = -1;
  std::int64_t seen = 0;
  while (scaled->peek_next_time() != kNever) {
    const auto ev = scaled->next();
    ASSERT_GE(ev.time, last);
    if (ev.time != last) last_id_at_time = -1;
    ASSERT_GT(ev.coflow.id.value, last_id_at_time);
    last = ev.time;
    last_id_at_time = ev.coflow.id.value;
    ++seen;
  }
  EXPECT_EQ(seen, 120);

  // And end to end through the engine (the spot-check lives there).
  auto t2 = matrix_trace();
  auto again = std::make_shared<workload::ScaleArrivals>(
      std::make_shared<workload::JitterSource>(
          std::make_shared<workload::TraceSource>(std::move(t2)), usec(500),
          42),
      1000.0);
  SaathScheduler sched;
  EXPECT_EQ(simulate(again, sched, {}).coflows.size(), 120u);
}

TEST(JitterSource, EmitsOrderedStreamAndPreservesWorkload) {
  auto t = matrix_trace();
  const std::size_t n = t.coflows.size();
  auto jittered = std::make_shared<workload::JitterSource>(
      std::make_shared<workload::TraceSource>(std::move(t)), msec(500), 13);
  SimTime last = 0;
  std::int64_t seen = 0;
  std::int64_t last_id_at_time = -1;
  while (jittered->peek_next_time() != kNever) {
    const auto ev = jittered->next();
    ASSERT_GE(ev.time, last);
    if (ev.time != last) last_id_at_time = -1;
    EXPECT_GT(ev.coflow.id.value, last_id_at_time);
    last_id_at_time = ev.coflow.id.value;
    EXPECT_EQ(ev.coflow.arrival, ev.time);
    last = ev.time;
    ++seen;
  }
  EXPECT_EQ(seen, static_cast<std::int64_t>(n));

  // Deterministic under the seed: same source, same stream.
  auto t2 = matrix_trace();
  auto again = std::make_shared<workload::JitterSource>(
      std::make_shared<workload::TraceSource>(std::move(t2)), msec(500), 13);
  SaathScheduler s1;
  SaathScheduler s2;
  auto t3 = matrix_trace();
  auto once_more = std::make_shared<workload::JitterSource>(
      std::make_shared<workload::TraceSource>(std::move(t3)), msec(500), 13);
  expect_identical(simulate(again, s1, {}), simulate(once_more, s2, {}),
                   "jitter determinism");
}

TEST(MergeSource, OrdersAcrossChildrenAndRoutesCompletions) {
  auto a = testing::make_trace(
      6, {testing::make_coflow(0, msec(10), {{0, 1, 5 * kMB}}),
          testing::make_coflow(1, msec(30), {{2, 3, 5 * kMB}})});
  a.name = "tenant-a";
  JobSpec job;
  job.id = JobId{9};
  job.arrival = msec(20);
  job.stages.push_back({{{4, 5, 5 * kMB}}, {}});
  job.stages.push_back({{{5, 4, 2 * kMB}}, {0}});
  auto dag = std::make_shared<workload::DagSource>("tenant-dag", 6);
  dag->add_job(job);

  auto merged = std::make_shared<workload::MergeSource>(
      std::vector<std::shared_ptr<workload::WorkloadSource>>{
          std::make_shared<workload::TraceSource>(std::move(a)), dag});
  EXPECT_EQ(merged->num_ports(), 6);

  SaathScheduler sched;
  const auto result = simulate(merged, sched, {});
  // 2 trace coflows + 2 dag stages, re-identified densely in emission order.
  ASSERT_EQ(result.coflows.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.coflows[i].id.value, static_cast<std::int64_t>(i));
  }
  // Completion routing restored the child's ids: the dag finished both
  // stages (it would stall forever if records reached it re-identified).
  EXPECT_TRUE(dag->all_jobs_finished());
  EXPECT_GT(dag->job_finish_time(JobId{9}), msec(20));
}

// ------------------------------------------------------------- DagSource

TEST(DagSource, MatchesOnTheReferenceEngine) {
  JobSpec job;
  job.id = JobId{1};
  job.stages.push_back({{{0, 4, 20 * kMB}, {1, 5, 20 * kMB}}, {}});
  job.stages.push_back({{{4, 2, 8 * kMB}}, {0}});
  job.stages.push_back({{{5, 3, 12 * kMB}}, {0}});
  job.stages.push_back({{{2, 6, 4 * kMB}, {3, 6, 4 * kMB}}, {1, 2}});
  job.validate();

  for (const bool every_epoch : {false, true}) {
    auto on_engine = std::make_shared<workload::DagSource>("dag", 8);
    on_engine->add_job(job);
    auto on_reference = std::make_shared<workload::DagSource>("dag", 8);
    on_reference->add_job(job);
    SaathScheduler s1;
    SaathScheduler s2;
    const auto engine_result = testing::run_on(
        every_epoch ? testing::Loop::kEveryEpoch : testing::Loop::kProduction,
        false, on_engine, s1, {});
    const auto reference_result =
        reference::reference_simulate(on_reference, s2, {});
    expect_identical(engine_result, reference_result,
                     every_epoch ? "dag/everyepoch" : "dag/skip");
    EXPECT_EQ(engine_result.coflows.size(), 4u);
    EXPECT_TRUE(on_engine->all_jobs_finished());
    EXPECT_TRUE(on_reference->all_jobs_finished());
    EXPECT_EQ(on_engine->job_finish_time(JobId{1}), engine_result.makespan);
  }
}

// ------------------------------------------------------------ guardrails

using WorkloadDeathTest = ::testing::Test;

TEST(WorkloadDeathTest, OutOfOrderSourceIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A ScriptSource cannot produce this (it sorts), so violate the invariant
  // with a raw event list replayed through a hostile source.
  class BadSource : public workload::WorkloadSource {
   public:
    [[nodiscard]] std::string name() const override { return "bad"; }
    [[nodiscard]] int num_ports() const override { return 4; }
    [[nodiscard]] SimTime peek_next_time() override {
      return emitted_ >= 2 ? kNever : (emitted_ == 0 ? msec(100) : msec(5));
    }
    [[nodiscard]] WorkloadEvent next() override {
      const SimTime at = emitted_ == 0 ? msec(100) : msec(5);
      ++emitted_;
      return WorkloadEvent::arrival(
          testing::make_coflow(emitted_, at, {{0, 1, 1 * kMB}}));
    }

   private:
    int emitted_ = 0;
  };
  SaathScheduler sched;
  Engine engine(std::make_shared<BadSource>(), sched, {});
  EXPECT_DEATH((void)engine.run(), "non-decreasing");
}

// ------------------------------------------------------------ ResultSink

TEST(ResultSink, AggregatesWithoutMaterializingRecords) {
  const auto t = matrix_trace();
  SaathScheduler s1;
  const auto materialized = simulate(t, s1, {});

  SaathScheduler s2;
  SimConfig cfg;
  cfg.record_results = false;
  workload::CctAggregator agg;
  Engine engine(std::make_shared<workload::TraceSource>(trace::Trace(t)), s2,
                cfg);
  engine.set_result_sink(&agg);
  const auto streamed = engine.run();

  EXPECT_TRUE(streamed.coflows.empty());
  EXPECT_EQ(streamed.makespan, materialized.makespan);
  EXPECT_EQ(agg.makespan(), materialized.makespan);
  ASSERT_EQ(agg.count(),
            static_cast<std::int64_t>(materialized.coflows.size()));
  const auto summary = materialized.cct_summary();
  EXPECT_NEAR(agg.mean_cct_seconds(), summary.mean, summary.mean * 1e-9);
  // Histogram percentiles are approximate: bounded by the bucket ratio.
  EXPECT_NEAR(agg.percentile_cct_seconds(50), summary.p50,
              summary.p50 * 0.05 + 1e-6);
  EXPECT_NEAR(agg.percentile_cct_seconds(90), summary.p90,
              summary.p90 * 0.05 + 1e-6);
}

TEST(ResultSink, StreamingReclamationIsBitIdenticalAcrossSchedulers) {
  // Every finished CoflowState is freed at the end of the delta-consuming
  // round, whether or not records are kept: Saath (and so Aalo) drops its
  // pointers at the completion hook. With records off the sink must
  // aggregate the exact CCT stream of the materialized run; with records on
  // the records must equal it too (ASan builds make this a lifetime test
  // as much as a correctness test).
  const auto t = matrix_trace();
  for (const std::string which : {"saath", "aalo"}) {
    for (const bool reference : {false, true}) {
      auto s1 = matrix_scheduler(which, reference);
      const auto materialized = simulate(t, *s1, {});

      for (const bool records : {false, true}) {
        SCOPED_TRACE(::testing::Message() << which << " reference "
                                          << reference << " records "
                                          << records);
        auto s2 = matrix_scheduler(which, reference);
        SimConfig cfg;
        cfg.record_results = records;
        workload::CctAggregator agg;
        Engine engine(std::make_shared<workload::TraceSource>(trace::Trace(t)),
                      *s2, cfg);
        engine.set_result_sink(&agg);
        const auto streamed = engine.run();

        if (records) {
          ASSERT_EQ(streamed.coflows.size(), materialized.coflows.size());
          for (std::size_t i = 0; i < streamed.coflows.size(); ++i) {
            EXPECT_EQ(streamed.coflows[i].id, materialized.coflows[i].id);
            EXPECT_EQ(streamed.coflows[i].finish,
                      materialized.coflows[i].finish);
            EXPECT_EQ(streamed.coflows[i].flow_fcts_seconds,
                      materialized.coflows[i].flow_fcts_seconds);
          }
        } else {
          EXPECT_TRUE(streamed.coflows.empty());
        }
        EXPECT_EQ(agg.makespan(), materialized.makespan);
        ASSERT_EQ(agg.count(),
                  static_cast<std::int64_t>(materialized.coflows.size()));
        const auto summary = materialized.cct_summary();
        EXPECT_NEAR(agg.mean_cct_seconds(), summary.mean, summary.mean * 1e-9);
        // CoFlows finishing in the final advance are freed by the engine
        // destructor, after the last scheduling round — so reclaimed is
        // bounded by, not equal to, the completion count.
        EXPECT_GT(engine.stats().reclaimed_coflows, 0);
        EXPECT_LE(engine.stats().reclaimed_coflows, agg.count());
      }
    }
  }
}

TEST(ResultSink, SinkSeesRecordsEvenWhenMaterializing) {
  const auto t = matrix_trace();
  SaathScheduler sched;
  workload::CctAggregator agg;
  Engine engine(t, sched, {});
  engine.set_result_sink(&agg);
  const auto result = engine.run();
  EXPECT_EQ(agg.count(), static_cast<std::int64_t>(result.coflows.size()));
}

// ------------------------------------------------------ scenario registry

TEST(ScenarioRegistry, EveryBuiltinRunsEndToEnd) {
  workload::ScenarioParams small;
  small.set("coflows", "40");
  small.set("jobs", "2");
  for (const auto& info : workload::known_scenarios()) {
    const auto run = workload::run_scenario(info.name, small);
    EXPECT_FALSE(run.result.coflows.empty()) << info.name;
    EXPECT_GT(run.result.makespan, 0) << info.name;
    EXPECT_GT(run.stats.arrivals_admitted, 0) << info.name;
  }
}

TEST(ScenarioRegistry, UnknownScenarioThrowsWithKnownList) {
  EXPECT_THROW((void)workload::make_scenario("no-such-scenario"),
               std::invalid_argument);
}

TEST(ScenarioRegistry, UserScenariosRegisterAndOverrideParams) {
  workload::register_scenario(
      "test-tiny", "unit-test scenario",
      [](const workload::ScenarioParams& params) {
        workload::ScenarioSetup setup;
        setup.source = std::make_shared<workload::TraceSource>(
            trace::synth_small_trace(
                8, static_cast<int>(params.get_int("coflows", 5)), 3));
        return setup;
      });
  workload::ScenarioParams params;
  params.set("coflows", "7");
  const auto run = workload::run_scenario("test-tiny", params, "aalo");
  EXPECT_EQ(run.result.coflows.size(), 7u);
  EXPECT_EQ(run.result.scheduler, "aalo");
  bool found = false;
  for (const auto& info : workload::known_scenarios()) {
    found |= info.name == "test-tiny";
  }
  EXPECT_TRUE(found);
}

// --------------------------------------------- combinator edge conditions

TEST(JitterSource, ArrivalAtTimeZeroIsNeverShiftedNegative) {
  // t=0 arrivals sit on the clock's origin: jitter must only ever push them
  // forward, and the re-sort buffer must keep the (time, id) invariant even
  // when several origin arrivals land on distinct jittered instants.
  auto t = testing::make_trace(
      4, {testing::make_coflow(0, 0, {{0, 1, 100}}),
          testing::make_coflow(1, 0, {{1, 2, 100}}),
          testing::make_coflow(2, 0, {{2, 3, 100}}),
          testing::make_coflow(3, msec(5), {{3, 0, 100}})});
  auto jittered = std::make_shared<workload::JitterSource>(
      std::make_shared<workload::TraceSource>(std::move(t)), msec(20), 99);
  SimTime last = 0;
  std::int64_t last_id_at_time = -1;
  int seen = 0;
  while (jittered->peek_next_time() != kNever) {
    const auto ev = jittered->next();
    ASSERT_GE(ev.time, 0);
    ASSERT_GE(ev.time, last);
    if (ev.time != last) last_id_at_time = -1;
    EXPECT_GT(ev.coflow.id.value, last_id_at_time);
    last_id_at_time = ev.coflow.id.value;
    last = ev.time;
    ++seen;
  }
  EXPECT_EQ(seen, 4);

  // And with zero jitter the origin arrivals pass through untouched.
  auto t2 = testing::make_trace(
      4, {testing::make_coflow(0, 0, {{0, 1, 100}}),
          testing::make_coflow(1, 0, {{1, 2, 100}})});
  auto still = std::make_shared<workload::JitterSource>(
      std::make_shared<workload::TraceSource>(std::move(t2)), 0, 99);
  EXPECT_EQ(still->peek_next_time(), 0);
  EXPECT_EQ(still->next().coflow.id.value, 0);
  EXPECT_EQ(still->next().coflow.id.value, 1);
  EXPECT_EQ(still->peek_next_time(), kNever);
}

TEST(MergeSource, ChildExhaustionMidStreamKeepsTheMergeFlowing) {
  // The short child drains while the long child still has events: the merge
  // must neither stall nor re-emit at the boundary, and its peek must fall
  // through to the surviving child immediately.
  auto short_child = testing::make_trace(
      4, {testing::make_coflow(0, msec(1), {{0, 1, 100}})});
  auto long_child = testing::make_trace(
      4, {testing::make_coflow(0, msec(2), {{1, 2, 100}}),
          testing::make_coflow(1, msec(30), {{2, 3, 100}}),
          testing::make_coflow(2, msec(40), {{3, 0, 100}})});
  auto merged = std::make_shared<workload::MergeSource>(
      std::vector<std::shared_ptr<workload::WorkloadSource>>{
          std::make_shared<workload::TraceSource>(std::move(short_child)),
          std::make_shared<workload::TraceSource>(std::move(long_child))});
  std::vector<SimTime> times;
  while (merged->peek_next_time() != kNever) {
    times.push_back(merged->next().time);
  }
  ASSERT_EQ(times.size(), 4u);
  EXPECT_EQ(times[0], msec(1));  // short child's only event
  EXPECT_EQ(times[1], msec(2));  // boundary: merge continues seamlessly
  EXPECT_EQ(times[3], msec(40));
  EXPECT_EQ(merged->peek_next_time(), kNever);
}

/// Completion-recording wrapper: proves feedback reaches a child (with its
/// own id space restored) even after that child's stream has drained.
class CompletionProbe final : public workload::WorkloadSource {
 public:
  explicit CompletionProbe(std::shared_ptr<workload::WorkloadSource> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] int num_ports() const override { return inner_->num_ports(); }
  [[nodiscard]] SimTime peek_next_time() override {
    return inner_->peek_next_time();
  }
  [[nodiscard]] workload::WorkloadEvent next() override {
    return inner_->next();
  }
  void on_coflow_complete(const CoflowRecord& rec, SimTime now) override {
    completed_ids.push_back(rec.id.value);
    inner_->on_coflow_complete(rec, now);
  }
  std::vector<std::int64_t> completed_ids;
 private:
  std::shared_ptr<workload::WorkloadSource> inner_;
};

TEST(MergeSource, RoutesCompletionsToADrainedChild) {
  // The probe child's arrivals are early and tiny; by the time they finish,
  // the child is long exhausted. The merge must still route each completion
  // back with the child's original (pre-reassignment) id.
  auto probe = std::make_shared<CompletionProbe>(
      std::make_shared<workload::TraceSource>(testing::make_trace(
          6, {testing::make_coflow(0, 0, {{0, 1, 1 * kMB}}),
              testing::make_coflow(1, 0, {{2, 3, 1 * kMB}})})));
  auto other = testing::make_trace(
      6, {testing::make_coflow(0, msec(5), {{4, 5, 40 * kMB}})});
  auto merged = std::make_shared<workload::MergeSource>(
      std::vector<std::shared_ptr<workload::WorkloadSource>>{
          probe, std::make_shared<workload::TraceSource>(std::move(other))});
  SaathScheduler sched;
  const auto result = simulate(merged, sched, {});
  ASSERT_EQ(result.coflows.size(), 3u);
  // Original child ids 0 and 1, not the merge's dense re-identification.
  ASSERT_EQ(probe->completed_ids.size(), 2u);
  EXPECT_EQ(std::min(probe->completed_ids[0], probe->completed_ids[1]), 0);
  EXPECT_EQ(std::max(probe->completed_ids[0], probe->completed_ids[1]), 1);
}

// ------------------------------------------------- strict scenario params

TEST(ScenarioParams, MalformedValueThrowsNamingKeyAndValue) {
  workload::ScenarioParams params;
  params.set("coflows", "12abc");
  try {
    (void)params.get_int("coflows", 1);
    FAIL() << "malformed integer should throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("coflows"), std::string::npos) << what;
    EXPECT_NE(what.find("12abc"), std::string::npos) << what;
  }
  params.set("rate", "fast");
  EXPECT_THROW((void)params.get_double("rate", 1.0), std::invalid_argument);
  // Well-formed values still parse (negative integers stay valid).
  params.set("n", "-42");
  EXPECT_EQ(params.get_int("n", 0), -42);
}

TEST(ScenarioParams, RunScenarioRejectsUnconsumedKeys) {
  workload::ScenarioParams params;
  params.set("coflows", "20");
  params.set("coflow", "99");  // the classic typo
  try {
    (void)workload::run_scenario("steady-churn", params);
    FAIL() << "unknown key should throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("coflow"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioParams, UniversalKeysPassEverywhere) {
  // CI matrices pass seed/ports/coflows/jobs to every scenario; a scenario
  // reading none of them must not reject the set.
  workload::ScenarioParams params;
  params.set("seed", "3");
  params.set("ports", "16");
  params.set("coflows", "20");
  params.set("jobs", "2");
  for (const auto& info : workload::known_scenarios()) {
    EXPECT_NO_THROW((void)workload::run_scenario(info.name, params))
        << info.name;
  }
}

}  // namespace
}  // namespace saath
