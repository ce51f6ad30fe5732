// Capture/replay, checkpoint/resume, and fault-injection robustness:
// journal round trips, digest-gated bit-identity across the config matrix,
// typed input faults in tolerant mode, and quarantine of stalled CoFlows.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "replay/checkpoint.h"
#include "reference/engine.h"
#include "reference/reference.h"
#include "replay/fault.h"
#include "replay/journal.h"
#include "sched/aalo.h"
#include "sched/factory.h"
#include "sched/saath.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/synth.h"
#include "workload/dag_source.h"
#include "workload/scenario.h"
#include "workload/sources.h"

namespace saath {
namespace {

using workload::WorkloadEvent;

/// Production, or (`reference`) the from-scratch reference model.
std::unique_ptr<Scheduler> matrix_scheduler(const std::string& which,
                                            bool reference) {
  if (which == "saath") {
    if (reference) return std::make_unique<reference::ReferenceSaath>();
    return std::make_unique<SaathScheduler>();
  }
  if (reference) return std::make_unique<reference::ReferenceAalo>();
  return std::make_unique<AaloScheduler>();
}

trace::Trace matrix_trace() {
  trace::SynthConfig cfg;
  cfg.num_ports = 32;
  cfg.num_coflows = 90;
  cfg.arrival_span = seconds(6);
  cfg.seed = 41;
  return trace::synth_fb_trace(cfg);
}

void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.coflows.size(), b.coflows.size()) << what;
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(replay::result_digest(a), replay::result_digest(b)) << what;
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    const auto& ra = a.coflows[i];
    const auto& rb = b.coflows[i];
    ASSERT_EQ(ra.id, rb.id) << what << " record " << i;
    EXPECT_EQ(ra.finish, rb.finish) << what << " coflow " << ra.id.value;
    ASSERT_EQ(ra.flow_fcts_seconds.size(), rb.flow_fcts_seconds.size());
    for (std::size_t f = 0; f < ra.flow_fcts_seconds.size(); ++f) {
      EXPECT_EQ(ra.flow_fcts_seconds[f], rb.flow_fcts_seconds[f])
          << what << " coflow " << ra.id.value << " flow " << f;
    }
  }
}

// -------------------------------------------------------- record / replay

TEST(RecordReplay, DigestIdentityAcrossLoopAndSchedulerMatrix) {
  const auto t = matrix_trace();
  for (const std::string which : {"saath", "aalo"}) {
    for (const testing::Loop loop :
         {testing::Loop::kProduction, testing::Loop::kEveryEpoch,
          testing::Loop::kReference}) {
      for (const bool reference : {false, true}) {
        SimConfig cfg;
        cfg.delta = msec(10);
        const std::string what = which + "/" + testing::loop_name(loop) +
                                 (reference ? "/reference" : "/production");
        // On a kReference cell every run goes through the reference engine.
        const auto run = [&](std::shared_ptr<workload::WorkloadSource> src,
                             const SimConfig& run_cfg) {
          auto sched = matrix_scheduler(which, reference);
          return testing::run_on(loop, /*oracle=*/true, std::move(src),
                                 *sched, run_cfg);
        };

        // Baseline: the same workload run without any recording layer.
        const SimResult base = run(
            std::make_shared<workload::TraceSource>(trace::Trace(t)), cfg);

        // Recorded run: the journaling wrapper must not perturb the run.
        std::ostringstream journal;
        auto rec = std::make_shared<replay::RecordingSource>(
            std::make_shared<workload::TraceSource>(trace::Trace(t)), journal,
            cfg, /*seed=*/41);
        expect_identical(base, run(rec, cfg), what + " record");

        // Replayed run: journal in, recorded config out, same digest.
        std::istringstream in(journal.str());
        auto rs = std::make_shared<replay::ReplaySource>(in);
        EXPECT_EQ(rs->num_ports(), t.num_ports);
        EXPECT_EQ(rs->recorded_seed(), 41);
        EXPECT_EQ(rs->recorded_config().delta, msec(10));
        expect_identical(base, run(rs, rs->recorded_config()),
                         what + " replay");
      }
    }
  }
}

TEST(RecordReplay, ReactiveDagStreamReplaysBitIdentically) {
  // DagSource releases stages off completion feedback; the journal captures
  // the released events at their recorded instants, so a ReplaySource (which
  // ignores completions) still reproduces the reactive run exactly.
  const auto make_setup = [] {
    return workload::make_scenario("pipeline-dag", workload::ScenarioParams{});
  };
  SaathScheduler s1;
  std::ostringstream journal;
  auto setup = make_setup();
  auto rec = std::make_shared<replay::RecordingSource>(
      setup.source, journal, setup.config, /*seed=*/0);
  const SimResult recorded = simulate(rec, s1, setup.config);
  ASSERT_GT(recorded.coflows.size(), 1u);

  std::istringstream in(journal.str());
  auto rs = std::make_shared<replay::ReplaySource>(in);
  SaathScheduler s2;
  const SimResult replayed = simulate(rs, s2, rs->recorded_config());
  expect_identical(recorded, replayed, "pipeline-dag replay");
}

TEST(RecordReplay, DigestDistinguishesSchedulers) {
  const auto t = matrix_trace();
  SaathScheduler saath;
  AaloScheduler aalo;
  const SimResult a = simulate(trace::Trace(t), saath);
  const SimResult b = simulate(trace::Trace(t), aalo);
  EXPECT_NE(replay::result_digest(a), replay::result_digest(b));
  EXPECT_EQ(replay::result_digest_hex(a).size(), 16u);
}

TEST(RecordReplay, MalformedJournalThrowsNamingTheLine) {
  std::istringstream empty("");
  EXPECT_THROW(replay::ReplaySource{empty}, std::runtime_error);

  std::istringstream bad_magic("NOPE 4 1 x\n");
  EXPECT_THROW(replay::ReplaySource{bad_magic}, std::runtime_error);

  std::istringstream truncated(
      "SAATHJ1 4 1 test\n"
      "C 0x1p30 8000 0 1 1 1 1 500000000000 0 0 3 1\n"
      "A 0 0 -1\n");
  replay::ReplaySource rs(truncated);
  try {
    (void)rs.peek_next_time();
    FAIL() << "truncated A line should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

// steady-churn, coflows=12, recorded by a build that still had the
// intra-epoch shard option, run with shards=4: the C line's tenth token
// (the slot now reserved) reads 4. Kept verbatim so journals from before
// the option's removal keep replaying to their recorded digest.
constexpr const char* kShardCountJournal = R"J(SAATHJ1 60 0 steady-churn
C 0x1.dcd65p+26 8000 0 1 1 1 1 500000000000 4 0 3 1
A 2969 0 -1 0 2969 0 14 8 36 10643827 8 1 10643827 8 0 10643827 8 38 10643827 8 4 10643827 8 2 10643827 8 3 10643827 8 32 10643827 8 48 10643827 8 46 10643827 8 23 10643827 8 35 10643827 8 6 10643827 8 5 10643827
A 4844 1 -1 0 4844 0 572 1 12 548 6 12 548 59 12 548 0 12 548 54 12 548 14 12 548 4 12 548 3 12 548 12 12 548 2 12 548 8 12 548 55 12 548 37 12 548 18 12 548 21 12 548 51 12 548 29 12 548 10 12 548 5 12 548 43 12 548 9 12 548 36 12 548 1 16 103 6 16 103 59 16 103 0 16 103 54 16 103 14 16 103 4 16 103 3 16 103 12 16 103 2 16 103 8 16 103 55 16 103 37 16 103 18 16 103 21 16 103 51 16 103 29 16 103 10 16 103 5 16 103 43 16 103 9 16 103 36 16 103 1 3 178 6 3 178 59 3 178 0 3 178 54 3 178 14 3 178 4 3 178 3 3 178 12 3 178 2 3 178 8 3 178 55 3 178 37 3 178 18 3 178 21 3 178 51 3 178 29 3 178 10 3 178 5 3 178 43 3 178 9 3 178 36 3 178 1 2 326 6 2 326 59 2 326 0 2 326 54 2 326 14 2 326 4 2 326 3 2 326 12 2 326 2 2 326 8 2 326 55 2 326 37 2 326 18 2 326 21 2 326 51 2 326 29 2 326 10 2 326 5 2 326 43 2 326 9 2 326 36 2 326 1 0 311 6 0 311 59 0 311 0 0 311 54 0 311 14 0 311 4 0 311 3 0 311 12 0 311 2 0 311 8 0 311 55 0 311 37 0 311 18 0 311 21 0 311 51 0 311 29 0 311 10 0 311 5 0 311 43 0 311 9 0 311 36 0 311 1 1 108 6 1 108 59 1 108 0 1 108 54 1 108 14 1 108 4 1 108 3 1 108 12 1 108 2 1 108 8 1 108 55 1 108 37 1 108 18 1 108 21 1 108 51 1 108 29 1 108 10 1 108 5 1 108 43 1 108 9 1 108 36 1 108 1 23 148 6 23 148 59 23 148 0 23 148 54 23 148 14 23 148 4 23 148 3 23 148 12 23 148 2 23 148 8 23 148 55 23 148 37 23 148 18 23 148 21 23 148 51 23 148 29 23 148 10 23 148 5 23 148 43 23 148 9 23 148 36 23 148 1 56 410 6 56 410 59 56 410 0 56 410 54 56 410 14 56 410 4 56 410 3 56 410 12 56 410 2 56 410 8 56 410 55 56 410 37 56 410 18 56 410 21 56 410 51 56 410 29 56 410 10 56 410 5 56 410 43 56 410 9 56 410 36 56 410 1 4 550 6 4 550 59 4 550 0 4 550 54 4 550 14 4 550 4 4 550 3 4 550 12 4 550 2 4 550 8 4 550 55 4 550 37 4 550 18 4 550 21 4 550 51 4 550 29 4 550 10 4 550 5 4 550 43 4 550 9 4 550 36 4 550 1 32 372 6 32 372 59 32 372 0 32 372 54 32 372 14 32 372 4 32 372 3 32 372 12 32 372 2 32 372 8 32 372 55 32 372 37 32 372 18 32 372 21 32 372 51 32 372 29 32 372 10 32 372 5 32 372 43 32 372 9 32 372 36 32 372 1 21 284 6 21 284 59 21 284 0 21 284 54 21 284 14 21 284 4 21 284 3 21 284 12 21 284 2 21 284 8 21 284 55 21 284 37 21 284 18 21 284 21 21 284 51 21 284 29 21 284 10 21 284 5 21 284 43 21 284 9 21 284 36 21 284 1 15 255 6 15 255 59 15 255 0 15 255 54 15 255 14 15 255 4 15 255 3 15 255 12 15 255 2 15 255 8 15 255 55 15 255 37 15 255 18 15 255 21 15 255 51 15 255 29 15 255 10 15 255 5 15 255 43 15 255 9 15 255 36 15 255 1 6 112 6 6 112 59 6 112 0 6 112 54 6 112 14 6 112 4 6 112 3 6 112 12 6 112 2 6 112 8 6 112 55 6 112 37 6 112 18 6 112 21 6 112 51 6 112 29 6 112 10 6 112 5 6 112 43 6 112 9 6 112 36 6 112 1 27 222 6 27 222 59 27 222 0 27 222 54 27 222 14 27 222 4 27 222 3 27 222 12 27 222 2 27 222 8 27 222 55 27 222 37 27 222 18 27 222 21 27 222 51 27 222 29 27 222 10 27 222 5 27 222 43 27 222 9 27 222 36 27 222 1 7 429 6 7 429 59 7 429 0 7 429 54 7 429 14 7 429 4 7 429 3 7 429 12 7 429 2 7 429 8 7 429 55 7 429 37 7 429 18 7 429 21 7 429 51 7 429 29 7 429 10 7 429 5 7 429 43 7 429 9 7 429 36 7 429 1 58 470 6 58 470 59 58 470 0 58 470 54 58 470 14 58 470 4 58 470 3 58 470 12 58 470 2 58 470 8 58 470 55 58 470 37 58 470 18 58 470 21 58 470 51 58 470 29 58 470 10 58 470 5 58 470 43 58 470 9 58 470 36 58 470 1 5 207 6 5 207 59 5 207 0 5 207 54 5 207 14 5 207 4 5 207 3 5 207 12 5 207 2 5 207 8 5 207 55 5 207 37 5 207 18 5 207 21 5 207 51 5 207 29 5 207 10 5 207 5 5 207 43 5 207 9 5 207 36 5 207 1 9 482 6 9 482 59 9 482 0 9 482 54 9 482 14 9 482 4 9 482 3 9 482 12 9 482 2 9 482 8 9 482 55 9 482 37 9 482 18 9 482 21 9 482 51 9 482 29 9 482 10 9 482 5 9 482 43 9 482 9 9 482 36 9 482 1 22 205 6 22 205 59 22 205 0 22 205 54 22 205 14 22 205 4 22 205 3 22 205 12 22 205 2 22 205 8 22 205 55 22 205 37 22 205 18 22 205 21 22 205 51 22 205 29 22 205 10 22 205 5 22 205 43 22 205 9 22 205 36 22 205 1 20 406 6 20 406 59 20 406 0 20 406 54 20 406 14 20 406 4 20 406 3 20 406 12 20 406 2 20 406 8 20 406 55 20 406 37 20 406 18 20 406 21 20 406 51 20 406 29 20 406 10 20 406 5 20 406 43 20 406 9 20 406 36 20 406 1 8 218 6 8 218 59 8 218 0 8 218 54 8 218 14 8 218 4 8 218 3 8 218 12 8 218 2 8 218 8 8 218 55 8 218 37 8 218 18 8 218 21 8 218 51 8 218 29 8 218 10 8 218 5 8 218 43 8 218 9 8 218 36 8 218 1 31 84 6 31 84 59 31 84 0 31 84 54 31 84 14 31 84 4 31 84 3 31 84 12 31 84 2 31 84 8 31 84 55 31 84 37 31 84 18 31 84 21 31 84 51 31 84 29 31 84 10 31 84 5 31 84 43 31 84 9 31 84 36 31 84 1 14 497 6 14 497 59 14 497 0 14 497 54 14 497 14 14 497 4 14 497 3 14 497 12 14 497 2 14 497 8 14 497 55 14 497 37 14 497 18 14 497 21 14 497 51 14 497 29 14 497 10 14 497 5 14 497 43 14 497 9 14 497 36 14 497 1 50 159 6 50 159 59 50 159 0 50 159 54 50 159 14 50 159 4 50 159 3 50 159 12 50 159 2 50 159 8 50 159 55 50 159 37 50 159 18 50 159 21 50 159 51 50 159 29 50 159 10 50 159 5 50 159 43 50 159 9 50 159 36 50 159 1 49 336 6 49 336 59 49 336 0 49 336 54 49 336 14 49 336 4 49 336 3 49 336 12 49 336 2 49 336 8 49 336 55 49 336 37 49 336 18 49 336 21 49 336 51 49 336 29 49 336 10 49 336 5 49 336 43 49 336 9 49 336 36 49 336 1 37 261 6 37 261 59 37 261 0 37 261 54 37 261 14 37 261 4 37 261 3 37 261 12 37 261 2 37 261 8 37 261 55 37 261 37 37 261 18 37 261 21 37 261 51 37 261 29 37 261 10 37 261 5 37 261 43 37 261 9 37 261 36 37 261
A 14309 2 -1 0 14309 0 48 0 1 426315 20 1 426315 1 1 426315 6 1 426315 0 2 542812 20 2 542812 1 2 542812 6 2 542812 0 0 217247 20 0 217247 1 0 217247 6 0 217247 0 17 639330 20 17 639330 1 17 639330 6 17 639330 0 8 634898 20 8 634898 1 8 634898 6 8 634898 0 12 676595 20 12 676595 1 12 676595 6 12 676595 0 59 1022162 20 59 1022162 1 59 1022162 6 59 1022162 0 30 304068 20 30 304068 1 30 304068 6 30 304068 0 3 284038 20 3 284038 1 3 284038 6 3 284038 0 11 177054 20 11 177054 1 11 177054 6 11 177054 0 4 412404 20 4 412404 1 4 412404 6 4 412404 0 27 1045422 20 27 1045422 1 27 1045422 6 27 1045422
A 65416 3 -1 0 65416 0 8 23 2 97866 0 2 97866 38 2 97866 29 2 97866 36 2 97866 2 2 97866 19 2 97866 43 2 97866
A 94346 4 -1 0 94346 0 114 12 33 103786 11 33 103786 24 33 103786 35 33 103786 3 33 103786 22 33 103786 12 18 103786 11 18 103786 24 18 103786 35 18 103786 3 18 103786 22 18 103786 12 32 103786 11 32 103786 24 32 103786 35 32 103786 3 32 103786 22 32 103786 12 15 103786 11 15 103786 24 15 103786 35 15 103786 3 15 103786 22 15 103786 12 30 103786 11 30 103786 24 30 103786 35 30 103786 3 30 103786 22 30 103786 12 7 103786 11 7 103786 24 7 103786 35 7 103786 3 7 103786 22 7 103786 12 4 103786 11 4 103786 24 4 103786 35 4 103786 3 4 103786 22 4 103786 12 27 103786 11 27 103786 24 27 103786 35 27 103786 3 27 103786 22 27 103786 12 5 103786 11 5 103786 24 5 103786 35 5 103786 3 5 103786 22 5 103786 12 0 103786 11 0 103786 24 0 103786 35 0 103786 3 0 103786 22 0 103786 12 26 103786 11 26 103786 24 26 103786 35 26 103786 3 26 103786 22 26 103786 12 20 103786 11 20 103786 24 20 103786 35 20 103786 3 20 103786 22 20 103786 12 17 103786 11 17 103786 24 17 103786 35 17 103786 3 17 103786 22 17 103786 12 8 103786 11 8 103786 24 8 103786 35 8 103786 3 8 103786 22 8 103786 12 2 103786 11 2 103786 24 2 103786 35 2 103786 3 2 103786 22 2 103786 12 12 103786 11 12 103786 24 12 103786 35 12 103786 3 12 103786 22 12 103786 12 19 103786 11 19 103786 24 19 103786 35 19 103786 3 19 103786 22 19 103786 12 56 103786 11 56 103786 24 56 103786 35 56 103786 3 56 103786 22 56 103786 12 21 103786 11 21 103786 24 21 103786 35 21 103786 3 21 103786 22 21 103786
A 127595 5 -1 0 127595 0 138 3 25 352808 1 25 352808 33 25 352808 6 25 352808 0 25 352808 40 25 352808 3 3 85168 1 3 85168 33 3 85168 6 3 85168 0 3 85168 40 3 85168 3 34 90324 1 34 90324 33 34 90324 6 34 90324 0 34 90324 40 34 90324 3 0 106584 1 0 106584 33 0 106584 6 0 106584 0 0 106584 40 0 106584 3 4 532400 1 4 532400 33 4 532400 6 4 532400 0 4 532400 40 4 532400 3 1 110804 1 1 110804 33 1 110804 6 1 110804 0 1 110804 40 1 110804 3 6 90472 1 6 90472 33 6 90472 6 6 90472 0 6 90472 40 6 90472 3 32 248907 1 32 248907 33 32 248907 6 32 248907 0 32 248907 40 32 248907 3 24 387774 1 24 387774 33 24 387774 6 24 387774 0 24 387774 40 24 387774 3 33 481142 1 33 481142 33 33 481142 6 33 481142 0 33 481142 40 33 481142 3 8 110691 1 8 110691 33 8 110691 6 8 110691 0 8 110691 40 8 110691 3 55 330124 1 55 330124 33 55 330124 6 55 330124 0 55 330124 40 55 330124 3 50 82814 1 50 82814 33 50 82814 6 50 82814 0 50 82814 40 50 82814 3 30 308720 1 30 308720 33 30 308720 6 30 308720 0 30 308720 40 30 308720 3 14 90784 1 14 90784 33 14 90784 6 14 90784 0 14 90784 40 14 90784 3 2 342856 1 2 342856 33 2 342856 6 2 342856 0 2 342856 40 2 342856 3 7 143562 1 7 143562 33 7 143562 6 7 143562 0 7 143562 40 7 143562 3 21 128312 1 21 128312 33 21 128312 6 21 128312 0 21 128312 40 21 128312 3 17 81560 1 17 81560 33 17 81560 6 17 81560 0 17 81560 40 17 81560 3 9 493364 1 9 493364 33 9 493364 6 9 493364 0 9 493364 40 9 493364 3 5 169410 1 5 169410 33 5 169410 6 5 169410 0 5 169410 40 5 169410 3 51 245200 1 51 245200 33 51 245200 6 51 245200 0 51 245200 40 51 245200 3 16 117000 1 16 117000 33 16 117000 6 16 117000 0 16 117000 40 16 117000
A 141405 6 -1 0 141405 0 1 35 0 6553062
A 142266 7 -1 0 142266 0 1 40 0 596232
A 143949 8 -1 0 143949 0 1 1 0 5946281
A 144156 9 -1 0 144156 0 9 43 1 12590731 17 1 12590731 18 1 12590731 43 14 12590731 17 14 12590731 18 14 12590731 43 13 12590731 17 13 12590731 18 13 12590731
A 161381 10 -1 0 161381 0 8 22 7 17993214 4 7 17993214 22 5 17993214 4 5 17993214 22 2 17993214 4 2 17993214 22 13 17993214 4 13 17993214
A 260034 11 -1 0 260034 0 10 27 0 1103200 27 4 1103200 27 2 1103200 27 28 1103200 27 34 1103200 27 10 1103200 27 31 1103200 27 20 1103200 27 5 1103200 27 12 1103200
)J";

TEST(RecordReplay, JournalWithRetiredShardCountReplays) {
  std::istringstream in(kShardCountJournal);
  auto rs = std::make_shared<replay::ReplaySource>(in);
  // The reserved slot is consumed, so the fields after it stay aligned.
  EXPECT_EQ(rs->recorded_config().max_stall_epochs, 0);
  EXPECT_EQ(rs->recorded_config().max_requeue_attempts, 3);
  EXPECT_TRUE(rs->recorded_config().strict_input);
  auto sched = make_scheduler("saath");
  const SimResult replayed = simulate(rs, *sched, rs->recorded_config());
  EXPECT_EQ(replay::result_digest_hex(replayed), "d8e52f9c67656b91");
}

TEST(RecordReplay, JournalHeaderWritesZeroInReservedSlot) {
  SimConfig cfg;
  cfg.max_stall_epochs = 5;
  std::ostringstream journal;
  replay::RecordingSource rec(
      std::make_shared<workload::TraceSource>(matrix_trace()), journal, cfg,
      /*seed=*/41);
  std::istringstream lines(journal.str());
  std::string header;
  std::string config_line;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, config_line));
  std::istringstream tokens(config_line);
  std::vector<std::string> fields;
  for (std::string tok; tokens >> tok;) fields.push_back(tok);
  ASSERT_EQ(fields.size(), 13u) << config_line;
  EXPECT_EQ(fields[0], "C");
  EXPECT_EQ(fields[4], "1");  // retired engine-mode slots
  EXPECT_EQ(fields[5], "1");
  EXPECT_EQ(fields[6], "1");
  EXPECT_EQ(fields[9], "0");   // reserved slot
  EXPECT_EQ(fields[10], "5");  // max_stall_epochs follows it
}

// A small run recorded by a build that still had the check_capacity,
// skip_quiescent_epochs and event_driven engine modes: three arrivals (the
// second gated until an explicit release), a straggler window on port 0,
// reallocate_on_completion, δ = 10 ms, seed 7. The C line's fourth to sixth
// tokens are those retired slots, written as 1 by every default run.
constexpr const char* kModeSlotJournal = R"J(SAATHJ1 4 7 parent-journal
C 0x1.dcd65p+26 10000 1 1 1 1 1 500000000000 0 0 3 1
A 0 0 -1 0 0 0 1 0 1 3000000
A 5000 1 -1 0 5000 -1 1 1 2 2000000
D 10000 1 0 0x1p-1
G 30000 1
A 40000 2 -1 0 40000 0 1 0 3 1000000
D 60000 2 0 0x1p+0
)J";

/// The workload kModeSlotJournal recorded, as a fresh source.
std::shared_ptr<workload::WorkloadSource> mode_slot_workload() {
  std::vector<WorkloadEvent> ev;
  ev.push_back(WorkloadEvent::arrival(
      testing::make_coflow(0, 0, {{0, 1, 3 * kMB}})));
  WorkloadEvent gated = WorkloadEvent::arrival(
      testing::make_coflow(1, msec(5), {{1, 2, 2 * kMB}}));
  gated.data_ready = kNever;
  ev.push_back(std::move(gated));
  ev.push_back(WorkloadEvent::dynamics_at(
      {msec(10), DynamicsEvent::Kind::kStragglerStart, 0, 0.5}));
  ev.push_back(WorkloadEvent::data_available(CoflowId{1}, msec(30)));
  ev.push_back(WorkloadEvent::arrival(
      testing::make_coflow(2, msec(40), {{0, 3, 1 * kMB}})));
  ev.push_back(WorkloadEvent::dynamics_at(
      {msec(60), DynamicsEvent::Kind::kStragglerEnd, 0, 1.0}));
  return std::make_shared<workload::ScriptSource>("parent-journal", 4,
                                                  std::move(ev));
}

[[nodiscard]] SimConfig mode_slot_config() {
  SimConfig cfg;
  cfg.delta = msec(10);
  cfg.reallocate_on_completion = true;
  return cfg;
}

TEST(RecordReplay, RecordingMatchesJournalFromBeforeModeRemoval) {
  std::ostringstream journal;
  auto rec = std::make_shared<replay::RecordingSource>(
      mode_slot_workload(), journal, mode_slot_config(), /*seed=*/7);
  SaathScheduler sched;
  const SimResult recorded = simulate(rec, sched, mode_slot_config());
  ASSERT_EQ(recorded.coflows.size(), 3u);
  EXPECT_EQ(journal.str(), kModeSlotJournal);
  EXPECT_EQ(replay::result_digest_hex(recorded), "ce4df422f4c1e309");

  std::istringstream in(kModeSlotJournal);
  auto rs = std::make_shared<replay::ReplaySource>(in);
  SaathScheduler replay_sched;
  expect_identical(recorded,
                   simulate(rs, replay_sched, rs->recorded_config()),
                   "journal from before the mode removal");
}

TEST(RecordReplay, RetiredModeSlotsAreIgnoredOnReplay) {
  std::string zeroed = kModeSlotJournal;
  const std::string ones = "10000 1 1 1 1 1 ";
  const std::size_t at = zeroed.find(ones);
  ASSERT_NE(at, std::string::npos);
  // realloc stays 1; the three retired slots read 0.
  zeroed.replace(at, ones.size(), "10000 1 0 0 0 1 ");
  std::istringstream original_in(kModeSlotJournal);
  std::istringstream zeroed_in(zeroed);
  auto original = std::make_shared<replay::ReplaySource>(original_in);
  auto rewritten = std::make_shared<replay::ReplaySource>(zeroed_in);
  EXPECT_TRUE(rewritten->recorded_config().reallocate_on_completion);
  EXPECT_TRUE(rewritten->recorded_config().record_results);
  SaathScheduler s1;
  SaathScheduler s2;
  const SimResult a = simulate(original, s1, original->recorded_config());
  const SimResult b = simulate(rewritten, s2, rewritten->recorded_config());
  EXPECT_EQ(replay::result_digest_hex(a), "ce4df422f4c1e309");
  EXPECT_EQ(replay::result_digest_hex(b), "ce4df422f4c1e309");
}

// ----------------------------------------------------- checkpoint / resume

TEST(Checkpoint, SerializationRoundTripsExactly) {
  // Snapshot a run mid-flight, serialize, load, serialize again: the two
  // byte streams must be identical (value-faithful round trip).
  const auto t = matrix_trace();
  SaathScheduler sched;
  SimConfig cfg;
  Engine engine(std::make_shared<workload::TraceSource>(trace::Trace(t)),
                sched, cfg);
  EngineSnapshot snap;
  bool captured = false;
  engine.set_snapshot_hook(40, [&](const EngineSnapshot& s) {
    if (!captured) snap = s;
    captured = true;
  });
  (void)engine.run();
  ASSERT_TRUE(captured);
  ASSERT_FALSE(snap.active.empty());

  std::ostringstream first;
  replay::save_checkpoint(first, snap);
  std::istringstream in(first.str());
  const EngineSnapshot loaded = replay::load_checkpoint(in);
  std::ostringstream second;
  replay::save_checkpoint(second, loaded);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(loaded.scheduler, snap.scheduler);
  EXPECT_EQ(loaded.now, snap.now);
  EXPECT_EQ(loaded.source_events_consumed, snap.source_events_consumed);
  EXPECT_EQ(loaded.active.size(), snap.active.size());
}

TEST(Checkpoint, TruncatedCheckpointIsRejected) {
  const auto t = matrix_trace();
  SaathScheduler sched;
  Engine engine(std::make_shared<workload::TraceSource>(trace::Trace(t)),
                sched, SimConfig{});
  EngineSnapshot snap;
  bool captured = false;
  engine.set_snapshot_hook(40, [&](const EngineSnapshot& s) {
    if (!captured) snap = s;
    captured = true;
  });
  (void)engine.run();
  ASSERT_TRUE(captured);
  std::ostringstream out;
  replay::save_checkpoint(out, snap);
  const std::string full = out.str();
  // A kill mid-checkpoint leaves a prefix without the END sentinel.
  std::istringstream torn(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)replay::load_checkpoint(torn), std::runtime_error);
}

TEST(Checkpoint, ResumeMatchesUninterruptedRunAcrossMatrix) {
  const auto t = matrix_trace();
  for (const std::string which : {"saath", "aalo"}) {
    for (const bool every_epoch : {false, true}) {
      const SimConfig cfg;
      const std::string what = which + (every_epoch ? "/everyepoch" : "/skip");

      // Recorded full run, snapshotting mid-flight.
      std::ostringstream journal;
      auto rec = std::make_shared<replay::RecordingSource>(
          std::make_shared<workload::TraceSource>(trace::Trace(t)), journal,
          cfg, /*seed=*/41);
      auto full_sched = matrix_scheduler(which, false);
      reference::EveryEpoch full_every(*full_sched);
      Engine full(rec,
                  every_epoch ? static_cast<Scheduler&>(full_every)
                              : *full_sched,
                  cfg);
      EngineSnapshot snap;
      bool captured = false;
      full.set_snapshot_hook(60, [&](const EngineSnapshot& s) {
        if (!captured) snap = s;
        captured = true;
      });
      const SimResult uninterrupted = full.run();
      ASSERT_TRUE(captured) << what;
      ASSERT_GT(snap.source_events_consumed, 0) << what;
      ASSERT_FALSE(snap.active.empty()) << what;

      // Serialize + reload the snapshot (the crash-recovery path reads it
      // from disk, never from the dying process's memory).
      std::ostringstream ckpt;
      replay::save_checkpoint(ckpt, snap);
      std::istringstream ckpt_in(ckpt.str());
      const EngineSnapshot restored = replay::load_checkpoint(ckpt_in);

      // Resume: journal suffix + restored snapshot on a fresh engine.
      std::istringstream in(journal.str());
      auto rs = std::make_shared<replay::ReplaySource>(in);
      rs->skip(restored.source_events_consumed);
      auto res_sched = matrix_scheduler(which, false);
      reference::EveryEpoch res_every(*res_sched);
      Engine resumed(rs,
                     every_epoch ? static_cast<Scheduler&>(res_every)
                                 : *res_sched,
                     rs->recorded_config());
      resumed.restore_snapshot(restored);
      const SimResult resumed_result = resumed.run();
      expect_identical(uninterrupted, resumed_result, what + " resume");

      // And both equal the reference engine's uninterrupted run.
      auto ref_sched = matrix_scheduler(which, false);
      expect_identical(
          uninterrupted,
          reference::reference_simulate(
              std::make_shared<workload::TraceSource>(trace::Trace(t)),
              *ref_sched, cfg),
          what + " reference engine");
    }
  }
}

// A checkpoint that carries an injected-arrival or pending-dynamics entry
// came from an engine with side channels this one does not have: loading
// it must fail loudly, naming the section.
TEST(Checkpoint, RetiredSectionCountsAreRejected) {
  const auto t = matrix_trace();
  SaathScheduler sched;
  Engine engine(std::make_shared<workload::TraceSource>(trace::Trace(t)),
                sched, SimConfig{});
  EngineSnapshot snap;
  bool captured = false;
  engine.set_snapshot_hook(40, [&](const EngineSnapshot& s) {
    if (!captured) snap = s;
    captured = true;
  });
  (void)engine.run();
  ASSERT_TRUE(captured);
  std::ostringstream out;
  replay::save_checkpoint(out, snap);
  const std::string saved = out.str();

  // N <active> <quarantined> <gates> <injected> <dynamics> <factors> <done>
  const auto with_count = [&](int slot, const char* value) {
    const std::size_t n_at = saved.find("\nN ");
    const std::size_t eol = saved.find('\n', n_at + 1);
    std::istringstream tokens(saved.substr(n_at + 1, eol - n_at - 1));
    std::vector<std::string> fields;
    for (std::string tok; tokens >> tok;) fields.push_back(tok);
    EXPECT_EQ(fields[static_cast<std::size_t>(slot)], "0");
    fields[static_cast<std::size_t>(slot)] = value;
    std::string line;
    for (const std::string& f : fields) {
      if (!line.empty()) line += ' ';
      line += f;
    }
    return saved.substr(0, n_at + 1) + line + saved.substr(eol);
  };
  for (const auto& [slot, section] :
       {std::pair<int, std::string>{4, "injected-arrival"},
        std::pair<int, std::string>{5, "pending-dynamics"}}) {
    std::istringstream in(with_count(slot, "1"));
    try {
      (void)replay::load_checkpoint(in);
      FAIL() << section << " count 1 should be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(section), std::string::npos)
          << e.what();
    }
  }
  // The unmodified checkpoint still loads.
  std::istringstream intact(saved);
  EXPECT_EQ(replay::load_checkpoint(intact).active.size(), snap.active.size());
}

TEST(Checkpoint, RestoreRefusesMismatchedScheduler) {
  const auto t = matrix_trace();
  SaathScheduler sched;
  Engine engine(std::make_shared<workload::TraceSource>(trace::Trace(t)),
                sched, SimConfig{});
  EngineSnapshot snap;
  bool captured = false;
  engine.set_snapshot_hook(40, [&](const EngineSnapshot& s) {
    if (!captured) snap = s;
    captured = true;
  });
  (void)engine.run();
  ASSERT_TRUE(captured);

  AaloScheduler other;
  Engine fresh(std::make_shared<workload::TraceSource>(trace::Trace(t)),
               other, SimConfig{});
  EXPECT_THROW(fresh.restore_snapshot(snap), std::invalid_argument);
}

// --------------------------------------------------------- fault injection

TEST(FaultInjection, TolerantModeDegradesToTypedFaults) {
  const auto t = matrix_trace();
  replay::FaultPlan plan;
  plan.seed = 7;
  plan.duplicate_p = 0.2;
  plan.malformed_p = 0.2;
  plan.storm_every = 20;
  plan.storm_size = 4;
  plan.storm_flow_bytes = 1 << 18;
  auto faulty = std::make_shared<replay::FaultySource>(
      std::make_shared<workload::TraceSource>(trace::Trace(t)), plan);

  SaathScheduler sched;
  SimConfig cfg;
  cfg.strict_input = false;
  Engine engine(faulty, sched, cfg);
  const SimResult result = engine.run();
  const EngineStats& stats = engine.stats();

  // Every duplicate and every malformed sibling was dropped as a typed
  // fault; every storm arrival was real work that completed.
  EXPECT_GT(faulty->injected_duplicates(), 0);
  EXPECT_GT(faulty->injected_malformed(), 0);
  EXPECT_GT(faulty->injected_storm_arrivals(), 0);
  EXPECT_EQ(stats.rejected_events,
            faulty->injected_duplicates() + faulty->injected_malformed());
  EXPECT_EQ(static_cast<std::int64_t>(result.coflows.size()),
            static_cast<std::int64_t>(t.coflows.size()) +
                faulty->injected_storm_arrivals());
  ASSERT_FALSE(stats.input_faults.empty());
  bool saw_duplicate = false, saw_malformed = false;
  for (const InputFault& f : stats.input_faults) {
    saw_duplicate |= f.kind == InputFault::Kind::kDuplicateId;
    saw_malformed |= f.kind == InputFault::Kind::kMalformedSpec ||
                     f.kind == InputFault::Kind::kArrivalMismatch;
    EXPECT_FALSE(f.detail.empty());
  }
  EXPECT_TRUE(saw_duplicate);
  EXPECT_TRUE(saw_malformed);
}

TEST(FaultInjection, FaultyRunsAreThemselvesReplayable) {
  const auto t = matrix_trace();
  replay::FaultPlan plan;
  plan.seed = 9;
  plan.duplicate_p = 0.15;
  plan.malformed_p = 0.15;
  SimConfig cfg;
  cfg.strict_input = false;

  std::ostringstream journal;
  auto rec = std::make_shared<replay::RecordingSource>(
      std::make_shared<replay::FaultySource>(
          std::make_shared<workload::TraceSource>(trace::Trace(t)), plan),
      journal, cfg, /*seed=*/9);
  SaathScheduler s1;
  Engine first(rec, s1, cfg);
  const SimResult a = first.run();
  const std::int64_t rejected_a = first.stats().rejected_events;
  ASSERT_GT(rejected_a, 0);

  std::istringstream in(journal.str());
  auto rs = std::make_shared<replay::ReplaySource>(in);
  SaathScheduler s2;
  Engine second(rs, s2, rs->recorded_config());
  const SimResult b = second.run();
  EXPECT_EQ(second.stats().rejected_events, rejected_a);
  expect_identical(a, b, "faulty replay");
}

TEST(FaultInjection, StrictModeStillAbortsOnMalformedInput) {
  // The tolerant path must be opt-in: the default posture keeps the hard
  // contract for trusted generators.
  auto t = testing::make_trace(4, {testing::make_coflow(0, 0, {{0, 1, 100}})});
  t.coflows[0].flows[0].size = -5;
  SaathScheduler sched;
  SimConfig cfg = testing::toy_config();
  Engine engine(std::make_shared<workload::TraceSource>(std::move(t)), sched,
                cfg);
  EXPECT_DEATH((void)engine.run(), "");
}

// ----------------------------------------------------- quarantine / stall

/// Two CoFlows on disjoint port pairs; port 0 is dead (capacity factor 0)
/// from t=1ms, healing at `heal` (kNever = never). CoFlow 0 can make no
/// progress while dead — the stall detector must take it out of the
/// scheduler's way and the run must still finish.
struct StallRig {
  std::unique_ptr<Engine> engine;
  SaathScheduler sched;

  StallRig(SimTime heal, int max_stall, int max_requeue) {
    auto t = testing::make_trace(
        4, {testing::make_coflow(0, 0, {{0, 1, 50}}),
            testing::make_coflow(1, 0, {{2, 3, 2000}})});
    SimConfig cfg = testing::toy_config();
    cfg.max_stall_epochs = max_stall;
    cfg.max_requeue_attempts = max_requeue;
    std::vector<DynamicsEvent> dynamics = {
        {msec(1), DynamicsEvent::Kind::kStragglerStart, 0, 0.0}};
    if (heal != kNever) {
      dynamics.push_back({heal, DynamicsEvent::Kind::kStragglerEnd, 0, 1.0});
    }
    engine = std::make_unique<Engine>(testing::stream_of(t, dynamics), sched,
                                      cfg);
  }
};

TEST(Quarantine, StalledCoflowIsDetachedAndRecoversAfterHeal) {
  StallRig rig(/*heal=*/msec(2500), /*max_stall=*/3, /*max_requeue=*/5);
  const SimResult result = rig.engine->run();
  const EngineStats& stats = rig.engine->stats();
  EXPECT_GE(stats.quarantine_events, 1);
  EXPECT_GE(stats.requeue_admissions, 1);
  ASSERT_FALSE(stats.quarantined_coflow_ids.empty());
  EXPECT_EQ(stats.quarantined_coflow_ids.front(), 0);
  EXPECT_TRUE(stats.abandoned_coflow_ids.empty());
  // Both CoFlows finished: the stalled one completed after the heal.
  ASSERT_EQ(result.coflows.size(), 2u);
  EXPECT_GE(result.coflows[0].finish, msec(2500));
}

TEST(Quarantine, RetryExhaustionAbandonsWithoutHangingTheRun) {
  StallRig rig(/*heal=*/kNever, /*max_stall=*/3, /*max_requeue=*/1);
  const SimResult result = rig.engine->run();
  const EngineStats& stats = rig.engine->stats();
  // The dead-port CoFlow burned its retry budget and was abandoned; the run
  // completed with the healthy CoFlow's record only.
  ASSERT_EQ(stats.abandoned_coflow_ids.size(), 1u);
  EXPECT_EQ(stats.abandoned_coflow_ids.front(), 0);
  ASSERT_EQ(result.coflows.size(), 1u);
  EXPECT_EQ(result.coflows.front().id.value, 1);
}

TEST(Quarantine, DisabledDetectorKeepsByteIdentity) {
  // max_stall_epochs = 0 must leave results bit-identical to the
  // pre-quarantine engine — the detector is pay-for-use.
  const auto t = matrix_trace();
  SaathScheduler s1, s2;
  SimConfig plain;
  const SimResult a = simulate(trace::Trace(t), s1, plain);
  SimConfig zero = plain;
  zero.max_stall_epochs = 0;
  zero.max_requeue_attempts = 7;  // irrelevant while disabled
  const SimResult b = simulate(trace::Trace(t), s2, zero);
  expect_identical(a, b, "quarantine disabled");
}

TEST(Quarantine, QuarantinedRunsCheckpointAndResumeBitIdentically) {
  // Uninterrupted run, journaled, snapshotting while the CoFlow is parked.
  auto t = testing::make_trace(
      4, {testing::make_coflow(0, 0, {{0, 1, 50}}),
          testing::make_coflow(1, 0, {{2, 3, 2000}})});
  SimConfig cfg = testing::toy_config();
  cfg.max_stall_epochs = 3;
  cfg.max_requeue_attempts = 5;
  const std::vector<DynamicsEvent> dynamics = {
      {msec(1), DynamicsEvent::Kind::kStragglerStart, 0, 0.0},
      {msec(2500), DynamicsEvent::Kind::kStragglerEnd, 0, 1.0}};
  std::ostringstream journal;
  auto rec = std::make_shared<replay::RecordingSource>(
      testing::stream_of(t, dynamics), journal, cfg, 0);
  SaathScheduler s1;
  Engine full(rec, s1, cfg);
  EngineSnapshot snap;
  bool captured = false;
  full.set_snapshot_hook(1, [&](const EngineSnapshot& s) {
    // Capture the first snapshot that holds a quarantined CoFlow, so the
    // resume path exercises the quarantine sections of the checkpoint.
    if (!captured && !s.quarantined.empty()) {
      snap = s;
      captured = true;
    }
  });
  const SimResult uninterrupted = full.run();
  ASSERT_GE(full.stats().quarantine_events, 1);
  ASSERT_TRUE(captured) << "no snapshot saw the quarantine window";

  std::ostringstream ckpt;
  replay::save_checkpoint(ckpt, snap);
  std::istringstream ckpt_in(ckpt.str());
  const EngineSnapshot restored = replay::load_checkpoint(ckpt_in);
  ASSERT_FALSE(restored.quarantined.empty());

  std::istringstream in(journal.str());
  auto rs = std::make_shared<replay::ReplaySource>(in);
  rs->skip(restored.source_events_consumed);
  SaathScheduler s2;
  Engine resumed(rs, s2, rs->recorded_config());
  // The dynamics are journal events: the suffix re-feeds the ones the
  // snapshot has not consumed.
  resumed.restore_snapshot(restored);
  const SimResult resumed_result = resumed.run();
  expect_identical(uninterrupted, resumed_result, "quarantine resume");
}

// ------------------------------------------------------------ runaway guard

TEST(RunawayGuard, NamesStuckCoflowsBeforeThrowing) {
  // No quarantine: the dead-port CoFlow never finishes and the horizon
  // guard fires. The throw (and stats) must name it.
  auto t = testing::make_trace(
      4, {testing::make_coflow(0, 0, {{0, 1, 50}}),
          testing::make_coflow(1, 0, {{2, 3, 200}})});
  SimConfig cfg = testing::toy_config();
  cfg.max_sim_time = seconds(30);
  SaathScheduler sched;
  Engine engine(
      testing::stream_of(
          t, {{msec(1), DynamicsEvent::Kind::kStragglerStart, 0, 0.0}}),
      sched, cfg);
  EXPECT_THROW((void)engine.run(), std::runtime_error);
  ASSERT_EQ(engine.stats().stuck_coflow_ids.size(), 1u);
  EXPECT_EQ(engine.stats().stuck_coflow_ids.front(), 0);
}

}  // namespace
}  // namespace saath
