// Event-driven simulation core benchmark — the perf trajectory anchor for
// the advance phase (completion resolution) and the max-min filler.
//
// Runs the FB-scale trace (150 ports, 526 CoFlows) through production Saath
// twice: on the production engine (completion heap, quiescent skip) and on
// the reference engine of tests/reference/ (the "oracle" side: a scan of
// every unfinished flow per completion micro-step, every epoch scheduled,
// the 4-arg schedule() so Saath takes its full route). Reports scheduling
// rounds/sec ("epochs"), advance-phase ns per flow completion, and the
// oracle/engine ratio, plus a maxmin_fair_rates micro-benchmark (ns/flow at
// FB-snapshot density), and writes everything as machine-readable
// BENCH_engine_core.json for the CI smoke gate (the advance-phase ratio
// must hold >= 5x at this scale).
//
//   $ ./engine_core [--coflows N] [--out BENCH_engine_core.json]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fabric/maxmin.h"
#include "reference/engine.h"
#include "replay/journal.h"
#include "sched/factory.h"
#include "sched/saath.h"
#include "sim/engine.h"
#include "trace/synth.h"
#include "workload/scenario.h"

namespace saath {
namespace {

using Clock = std::chrono::steady_clock;

struct RunMeasurement {
  double wall_ms = 0;
  double epochs_per_sec = 0;
  double advance_ns_per_completion = 0;
  double advance_ms = 0;
  double schedule_ms = 0;
  std::int64_t completions = 0;
  int epochs = 0;
  SimResult result;
};

/// Fills the rate fields from a run's counters.
void finish_measurement(RunMeasurement& m, std::int64_t advance_ns) {
  m.epochs_per_sec = m.epochs / (m.wall_ms / 1e3);
  m.advance_ns_per_completion =
      m.completions > 0 ? static_cast<double>(advance_ns) /
                              static_cast<double>(m.completions)
                        : 0;
  m.advance_ms = static_cast<double>(advance_ns) / 1e6;
}

RunMeasurement run_engine(const trace::Trace& trace) {
  SaathScheduler sched;
  Engine engine(trace, sched, bench::paper_sim_config());
  const auto t0 = Clock::now();
  RunMeasurement m;
  m.result = engine.run();
  m.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  const auto& st = engine.stats();
  m.epochs = engine.scheduling_rounds();
  m.completions = st.flow_completions;
  m.schedule_ms = static_cast<double>(st.schedule_ns) / 1e6;
  finish_measurement(m, st.advance_ns);
  return m;
}

/// The same run on the reference engine, which times its advance only.
RunMeasurement run_reference_engine(const trace::Trace& trace) {
  SaathScheduler sched;
  reference::ReferenceEngine engine(trace, sched, bench::paper_sim_config());
  const auto t0 = Clock::now();
  RunMeasurement m;
  m.result = engine.run();
  m.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  m.epochs = engine.scheduling_rounds();
  m.completions = engine.stats().flow_completions;
  finish_measurement(m, engine.stats().advance_ns);
  return m;
}

/// One steady-churn scenario run (the ROADMAP perf-trajectory workload:
/// continuous arrivals over 60 ports, so epoch cost is dominated by the
/// scheduler + heap hot path rather than startup/drain transients).
struct ChurnMeasurement {
  double wall_ms = 0;
  int epochs = 0;
  double epochs_per_sec = 0;
  std::uint64_t digest = 0;
};

ChurnMeasurement run_steady_churn(const std::string& sched_name,
                                  bool reference_engine) {
  workload::ScenarioSetup setup = workload::make_scenario("steady-churn");
  auto sched = make_scheduler(sched_name);
  SimConfig cfg = setup.config;
  apply_scheduler_sim_overrides(sched_name, cfg);
  ChurnMeasurement m;
  const auto t0 = Clock::now();
  SimResult result;
  if (reference_engine) {
    reference::ReferenceEngine engine(setup.source, *sched, cfg);
    result = engine.run();
    m.epochs = engine.scheduling_rounds();
  } else {
    Engine engine(setup.source, *sched, cfg);
    result = engine.run();
    m.epochs = engine.scheduling_rounds();
  }
  m.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  m.epochs_per_sec = m.epochs / (m.wall_ms / 1e3);
  m.digest = replay::result_digest(result);
  return m;
}

/// maxmin ns/flow on a busy snapshot: every flow of every CoFlow contends.
double bench_maxmin(const trace::Trace& trace, int* out_flows) {
  std::vector<MaxMinDemand> demands;
  for (const auto& c : trace.coflows) {
    for (const auto& f : c.flows) demands.push_back({f.src, f.dst, 0});
  }
  *out_flows = static_cast<int>(demands.size());
  constexpr int kReps = 20;
  const auto t0 = Clock::now();
  double sink = 0;
  for (int i = 0; i < kReps; ++i) {
    const auto rates = maxmin_fair_rates(demands, trace.num_ports, gbps(1));
    sink += rates.empty() ? 0 : rates[0];
  }
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  if (sink < 0) std::printf("?");  // defeat dead-code elimination
  return ns / kReps / static_cast<double>(demands.size());
}

int run(int argc, char** argv) {
  int coflows = 526;
  std::string out = "BENCH_engine_core.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--coflows") == 0) coflows = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out = argv[i + 1];
  }
  out = bench::bench_out_path(out);

  trace::SynthConfig cfg;
  cfg.num_ports = 150;
  cfg.num_coflows = coflows;
  cfg.seed = 7;
  const auto trace = trace::synth_fb_trace(cfg);

  bench::print_header(
      "engine core — production engine (heap advance, skip) vs reference "
      "engine (scan advance, every epoch), " +
          std::to_string(coflows) + " CoFlows on 150 ports",
      "ROADMAP perf trajectory; CI gate: advance ratio >= 5x");

  const auto event = run_engine(trace);
  const auto oracle = run_reference_engine(trace);

  // The two engines must agree bit-exactly; a silent divergence would make
  // every number below meaningless.
  bool identical = event.result.coflows.size() == oracle.result.coflows.size();
  for (std::size_t i = 0; identical && i < event.result.coflows.size(); ++i) {
    identical = event.result.coflows[i].finish == oracle.result.coflows[i].finish &&
                event.result.coflows[i].flow_fcts_seconds ==
                    oracle.result.coflows[i].flow_fcts_seconds;
  }

  int maxmin_flows = 0;
  const double maxmin_ns_per_flow = bench_maxmin(trace, &maxmin_flows);

  // Steady-churn matrix: every scheduler runs on the production engine and
  // on the reference engine; the digests must agree pairwise (the SoA/heap
  // hot path is digest-gated, not just round-count-gated). The saath
  // production rounds/sec is the perf-trajectory headline number.
  const char* kChurnScheds[] = {"saath", "aalo", "uc-tcp"};
  ChurnMeasurement churn_event[3], churn_oracle[3];
  bool churn_identical = true;
  std::printf("\nsteady-churn scenario (production vs reference engine)\n");
  std::printf("%-10s %12s %12s %10s %18s\n", "scheduler", "engine rd/s",
              "ref rd/s", "ratio", "digest");
  for (int s = 0; s < 3; ++s) {
    churn_event[s] =
        run_steady_churn(kChurnScheds[s], /*reference_engine=*/false);
    churn_oracle[s] =
        run_steady_churn(kChurnScheds[s], /*reference_engine=*/true);
    const bool same = churn_event[s].digest == churn_oracle[s].digest;
    churn_identical = churn_identical && same;
    const double ratio = churn_oracle[s].epochs_per_sec > 0
                             ? churn_event[s].epochs_per_sec /
                                   churn_oracle[s].epochs_per_sec
                             : 0.0;
    std::printf("%-10s %12.0f %12.0f %9.2fx %018llx%s\n", kChurnScheds[s],
                churn_event[s].epochs_per_sec, churn_oracle[s].epochs_per_sec,
                ratio, static_cast<unsigned long long>(churn_event[s].digest),
                same ? "" : "  DIGEST MISMATCH");
  }

  const double advance_ratio =
      event.advance_ns_per_completion > 0
          ? oracle.advance_ns_per_completion / event.advance_ns_per_completion
          : 0;
  const double end_to_end_ratio = oracle.wall_ms / event.wall_ms;

  std::printf("%-22s %14s %14s\n", "", "production", "reference");
  std::printf("%-22s %14.1f %14.1f\n", "wall ms", event.wall_ms, oracle.wall_ms);
  std::printf("%-22s %14d %14d\n", "rounds", event.epochs, oracle.epochs);
  std::printf("%-22s %14.0f %14.0f\n", "rounds/sec", event.epochs_per_sec,
              oracle.epochs_per_sec);
  std::printf("%-22s %14.0f %14.0f\n", "advance ns/completion",
              event.advance_ns_per_completion, oracle.advance_ns_per_completion);
  std::printf("advance-phase ratio: %.1fx   end-to-end ratio: %.2fx   "
              "results identical: %s\n",
              advance_ratio, end_to_end_ratio, identical ? "yes" : "NO");
  std::printf("maxmin: %.1f ns/flow over %d flows\n", maxmin_ns_per_flow,
              maxmin_flows);

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"engine_core\",\n"
               "  \"trace\": \"%s\",\n"
               "  \"coflows\": %d,\n"
               "  \"ports\": %d,\n"
               "  \"results_identical\": %s,\n"
               "  \"event\": {\"wall_ms\": %.3f, \"epochs\": %d, "
               "\"epochs_per_sec\": %.1f, \"completions\": %lld, "
               "\"advance_ns_per_completion\": %.1f, \"advance_ms\": %.3f, "
               "\"schedule_ms\": %.3f},\n"
               "  \"oracle\": {\"engine\": \"reference\", \"wall_ms\": %.3f, "
               "\"epochs\": %d, \"epochs_per_sec\": %.1f, "
               "\"completions\": %lld, \"advance_ns_per_completion\": %.1f, "
               "\"advance_ms\": %.3f},\n"
               "  \"advance_ratio\": %.2f,\n"
               "  \"end_to_end_ratio\": %.2f,\n"
               "  \"maxmin\": {\"flows\": %d, \"ns_per_flow\": %.1f},\n"
               "  \"steady_churn\": {\n"
               "    \"digests_match\": %s,\n"
               "    \"epochs_per_sec\": %.1f,\n"
               "    \"schedulers\": {\n",
               trace.name.c_str(), coflows, trace.num_ports,
               identical ? "true" : "false", event.wall_ms, event.epochs,
               event.epochs_per_sec, static_cast<long long>(event.completions),
               event.advance_ns_per_completion, event.advance_ms,
               event.schedule_ms, oracle.wall_ms, oracle.epochs,
               oracle.epochs_per_sec, static_cast<long long>(oracle.completions),
               oracle.advance_ns_per_completion, oracle.advance_ms,
               advance_ratio, end_to_end_ratio,
               maxmin_flows, maxmin_ns_per_flow,
               churn_identical ? "true" : "false",
               churn_event[0].epochs_per_sec);
  for (int s = 0; s < 3; ++s) {
    std::fprintf(
        f,
        "      \"%s\": {\"event_epochs_per_sec\": %.1f, "
        "\"oracle_epochs_per_sec\": %.1f, \"event_epochs\": %d, "
        "\"event_wall_ms\": %.3f, \"digest\": \"%016llx\", "
        "\"digests_match\": %s}%s\n",
        kChurnScheds[s], churn_event[s].epochs_per_sec,
        churn_oracle[s].epochs_per_sec, churn_event[s].epochs,
        churn_event[s].wall_ms,
        static_cast<unsigned long long>(churn_event[s].digest),
        churn_event[s].digest == churn_oracle[s].digest ? "true" : "false",
        s + 1 < 3 ? "," : "");
  }
  std::fprintf(f, "    }\n  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return identical && churn_identical ? 0 : 2;
}

}  // namespace
}  // namespace saath

int main(int argc, char** argv) { return saath::run(argc, argv); }
