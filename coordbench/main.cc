// coordbench — the coordinator benchmark: four workloads, end-to-end
// metrics from untraced runs, a per-layer split from traced runs.
//
//   coordbench --workload fb-saath|stream-saath|fb-uctcp|svc-saath
//              --seed N --seconds S --trace 0|1 [--out-dir DIR] [--commit ID]
//
// Every run generates its input from --seed, runs one untimed reference
// pass, then a fixed number of identical timed passes (about --seconds of
// work on the reference host), each on one engine replica per core, checks
// every pass's output, and prints one JSON object as its last stdout line.
// Host times are best of passes: every round, and every gap between round
// starts, at its lowest time over the replica passes. See README.md in this
// directory.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "probes.h"
#include "replay/journal.h"
#include "sched/factory.h"
#include "sched/saath.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/source.h"
#include "sim/engine.h"
#include "trace/fb_format.h"
#include "trace/synth.h"
#include "workload/sources.h"

namespace coordbench {
namespace {

using saath::CoflowSpec;
using saath::Engine;
using saath::SimConfig;
using saath::SimResult;
using saath::workload::WorkloadEvent;
using saath::workload::WorkloadSource;

// ------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced runs), in BENCHMARK.json order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"coflows_per_s", "coflows/s"},
    {"round_p50_us", "us"},    {"round_p99_us", "us"},
    {"cct_p50_s", "sim_s"},    {"cct_p90_s", "sim_s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics (traced runs): mean per traced pass. A layer a
/// workload does not exercise reads 0 (see README.md).
constexpr MetricDef kPerLayer[] = {
    {"saath.order_s", "s"},
    {"saath.admit_s", "s"},
    {"saath.conserve_s", "s"},
    {"saath.crossing_s", "s"},
    {"saath.delta_rounds", "count"},
    {"saath.replayed_ranks", "count"},
    {"saath.backfill_flows", "count"},
    {"saath.backfill_hit_frac", "ratio"},
    {"saath.conserve_replays", "count"},
    {"sched.rounds", "count"},
    {"sched.busy_s", "s"},
    {"sched.rated_flows", "count"},
    {"sched.hook_calls", "count"},
    {"sched.hook_s", "s"},
    {"sched.valid_until_s", "s"},
    {"sim.run_s", "s"},
    {"sim.self_s", "s"},
    {"sim.ingest_s", "s"},
    {"sim.advance_s", "s"},
    {"sim.schedule_s", "s"},
    {"sim.round_overhead_s", "s"},
    {"sim.unattributed_s", "s"},
    {"sim.epochs", "count"},
    {"sim.skip_frac", "ratio"},
    {"sim.flow_completions", "count"},
    {"sim.heap_pushes_per_completion", "ratio"},
    {"sim.peak_live", "count"},
    {"sim.mean_live", "count"},
    {"sim.reclaimed", "count"},
    {"source.calls", "count"},
    {"source.busy_s", "s"},
    {"trace.parse_s", "s"},
    {"sink.busy_s", "s"},
    {"client.send_s", "s"},
    {"client.drain_s", "s"},
    {"service.ingress_wait_p50_us", "us"},
    {"service.ingress_wait_p99_us", "us"},
    {"service.engine_busy_frac", "ratio"},
    {"service.rounds", "count"},
    {"service.rejected", "count"},
    {"service.dones", "count"},
    {"tracing.overhead_frac", "ratio"},
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `v` (sorted in place). `beyond` receives the
/// number of samples strictly above the reported rank.
template <typename T>
T percentile(std::vector<T>& v, double p, std::size_t& beyond) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  beyond = v.size() - idx - 1;
  return v[idx];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e9;
}

// ------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/coordbench";
  std::string commit = "unknown";
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--out-dir") {
      o.out_dir = val;
    } else if (key == "--commit") {
      o.commit = val;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  return o;
}

// -------------------------------------------------------------- report

/// The lowest host time over a run's timed replica passes, element by
/// element. Every pass of a workload replays the same deterministic run, so
/// round i of one pass is round i of every other (fold() checks that the
/// passes agree on every round's completion count). Interference from
/// other tenants of the host only ever adds time, so each element's minimum
/// over the passes is the program's own cost for that piece of work.
struct BestOfPasses {
  /// schedule() wall time of round i.
  std::vector<std::int64_t> round_ns;
  /// Gaps between consecutive boundaries: run start, the start of every
  /// round, run end (rounds + 1 gaps; together the whole Engine::run).
  std::vector<std::int64_t> gap_ns;
  /// CoFlows completed before round i began.
  std::vector<std::int64_t> completed;
  int passes = 0;

  /// Folds one pass; false if its rounds differ from the passes before.
  bool fold(const std::vector<RoundSample>& rounds, std::int64_t run_begin,
            std::int64_t run_end) {
    BestOfPasses one;
    one.passes = 1;
    std::int64_t prev = run_begin;
    for (const RoundSample& r : rounds) {
      one.round_ns.push_back(r.dur_ns);
      one.gap_ns.push_back(r.begin_ns - prev);
      one.completed.push_back(r.completed);
      prev = r.begin_ns;
    }
    one.gap_ns.push_back(run_end - prev);
    return fold(std::move(one));
  }
  bool fold(BestOfPasses&& other) {
    if (other.passes == 0) return true;
    if (passes == 0) {
      *this = std::move(other);
      return true;
    }
    if (other.completed != completed) return false;
    for (std::size_t i = 0; i < round_ns.size(); ++i) {
      round_ns[i] = std::min(round_ns[i], other.round_ns[i]);
    }
    for (std::size_t i = 0; i < gap_ns.size(); ++i) {
      gap_ns[i] = std::min(gap_ns[i], other.gap_ns[i]);
    }
    passes += other.passes;
    return true;
  }
  /// The best-of-passes time of gaps [g0, g1).
  [[nodiscard]] double seconds(std::size_t g0, std::size_t g1) const {
    std::int64_t ns = 0;
    for (std::size_t k = g0; k < g1; ++k) ns += gap_ns[k];
    return static_cast<double>(ns) / 1e9;
  }
};

/// The host-time metrics of a run, from its BestOfPasses.
struct HostStats {
  double coflows_per_s = 0;
  double round_p50_us = 0;
  double round_p99_us = 0;
  std::size_t rounds = 0;      // rounds the percentiles are taken over
  std::size_t beyond_p99 = 0;  // of those, rounds above the p99
  std::int64_t coflows = 0;    // completions the throughput counts
  double seconds = 0;          // the best-of-passes time they took
};

/// Which rounds a workload's host metrics cover: those that begin once
/// `from` CoFlows have completed and before `to` have. With `to` < 0 they
/// cover every round, and the throughput spans the whole Engine::run.
struct Window {
  std::int64_t from = 0;
  std::int64_t to = -1;
};

/// Everything one run accumulates across its passes.
struct Report {
  std::vector<double> setup_s;
  BestOfPasses best;
  HostStats host;
  /// svc-saath: the daemon's throughput, one sample per daemon pass.
  std::vector<double> served_per_s;
  std::vector<double> ccts;  // one pass's CCTs (identical every pass)
  std::vector<double> pass_wall;  // replica 0's, for the log
  /// Per traced pass: traced replica 0's wall time over the median of the
  /// untraced replicas' running beside it, minus 1.
  std::vector<double> overhead;
  std::map<std::string, double> layer_sum;
  int traced_passes = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  /// Every timed pass's output digest; all must equal `digest_hex`.
  std::vector<std::string> digests;
  std::string digest_hex;
  std::unique_ptr<Tracer> chrome;  // the first traced pass's spans

  void check(bool ok, const std::string& what, std::int64_t failed_coflows) {
    if (ok) return;
    errors.push_back(what);
    failed += failed_coflows;
  }
  void layer(const std::string& name, double value) {
    layer_sum[name] += value;
  }
  /// Folds one replica's samples and checks into this report.
  void merge(Report&& r) {
    const auto append = [](auto& to, auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(setup_s, r.setup_s);
    check(best.fold(std::move(r.best)),
          "replica passes ran different rounds (the run is not deterministic)",
          0);
    append(digests, r.digests);
    append(errors, r.errors);
    if (ccts.empty()) ccts = std::move(r.ccts);
    for (const auto& [name, value] : r.layer_sum) layer_sum[name] += value;
    attempted += r.attempted;
    failed += r.failed;
  }
  /// Every pass digest equals `digest_hex` (`coflows` per pass).
  void check_digests(std::int64_t coflows) {
    for (const std::string& d : digests) {
      check(d == digest_hex,
            "pass digest " + d + " != reference " + digest_hex, coflows);
    }
  }
};

/// Host metrics over `w` from the best-of-passes rounds; `coflows` is the
/// whole run's CoFlow count. False if the run never reached the window.
bool host_stats(const BestOfPasses& b, Window w, std::int64_t coflows,
                HostStats& out) {
  const std::size_t n = b.round_ns.size();
  std::size_t rb = 0;
  std::size_t re = n;
  if (w.to >= 0) {
    while (rb < n && b.completed[rb] < w.from) ++rb;
    re = rb;
    while (re < n && b.completed[re] < w.to) ++re;
    if (re == n) return false;
  }
  if (re <= rb) return false;
  std::vector<std::int64_t> rounds(
      b.round_ns.begin() + static_cast<std::ptrdiff_t>(rb),
      b.round_ns.begin() + static_cast<std::ptrdiff_t>(re));
  out.rounds = rounds.size();
  std::size_t beyond = 0;
  out.round_p50_us = static_cast<double>(percentile(rounds, 50, beyond)) / 1e3;
  out.round_p99_us = static_cast<double>(percentile(rounds, 99, beyond)) / 1e3;
  out.beyond_p99 = beyond;
  // Gap k ends at boundary k + 1; round i starts at boundary i + 1. The
  // window runs from the start of round rb to the start of round re, or
  // over every gap for the whole run.
  out.seconds = w.to >= 0 ? b.seconds(rb + 1, re + 1)
                          : b.seconds(0, b.gap_ns.size());
  out.coflows = w.to >= 0 ? b.completed[re] - b.completed[rb] : coflows;
  out.coflows_per_s = static_cast<double>(out.coflows) / out.seconds;
  return true;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Isolation lower bound of a CoFlow's CCT: the busiest port's bytes at
/// full port rate.
double isolation_bound(const CoflowSpec& spec, saath::Rate port_rate) {
  std::map<std::pair<int, int>, double> bytes;  // (side, port)
  double worst = 0;
  for (const saath::FlowSpec& f : spec.flows) {
    worst = std::max(worst, bytes[{0, f.src}] += static_cast<double>(f.size));
    worst = std::max(worst, bytes[{1, f.dst}] += static_cast<double>(f.size));
  }
  return worst / port_rate;
}

// ------------------------------------------------------- engine passes

/// What one engine pass needs: a fresh source, the scheduler by name, the
/// config, and the per-id lower bounds.
struct EngineJob {
  std::string scheduler;
  SimConfig config;
  std::function<std::shared_ptr<WorkloadSource>(double& parse_s)> open;
  const std::vector<double>* lower_bounds = nullptr;
};

struct PassOut {
  double setup_s = 0;
  double wall_s = 0;
  std::uint64_t sink_digest = 0;
  std::string result_digest;
};

struct Reference {
  std::string result_digest;  // replay::result_digest (records, makespan)
  std::uint64_t sink_digest = 0;  // CheckSink's completion-order digest
};

/// Untimed pass without the decorators: the transparency reference. Only
/// the benchmark's sink is attached, as on every pass.
Reference reference_pass(const EngineJob& job) {
  double parse_s = 0;
  auto sched = saath::make_scheduler(job.scheduler);
  Engine engine(job.open(parse_s), *sched, job.config);
  CheckSink sink(*job.lower_bounds, nullptr);
  engine.set_result_sink(&sink);
  const SimResult result = engine.run();
  return {saath::replay::result_digest_hex(result), sink.digest()};
}

/// One decorated pass. `tracer` null = untraced (end-to-end numbers).
PassOut engine_pass(const EngineJob& job, Tracer* tracer, Report& rep) {
  // The benchmark's own buffers are allocated before the set-up clock.
  std::vector<RoundSample> rounds;
  rounds.reserve(1 << 17);
  CheckSink sink(*job.lower_bounds, tracer);
  PassOut out;
  const std::int64_t t0 = now_ns();
  double parse_s = 0;
  auto inner_source = job.open(parse_s);
  auto sched = saath::make_scheduler(job.scheduler);
  TimedScheduler timed(*sched, tracer, rounds, sink.completed());
  auto source = std::make_shared<TimedSource>(std::move(inner_source), tracer);
  Engine engine(source, timed, job.config);
  engine.set_result_sink(&sink);
  const std::int64_t t1 = now_ns();
  SimResult result;
  {
    Scope run(tracer, SpanKind::kRun);
    result = engine.run();
  }
  const std::int64_t t2 = now_ns();
  out.setup_s = seconds_between(t0, t1);
  out.wall_s = seconds_between(t1, t2);
  out.sink_digest = sink.digest();
  out.result_digest = saath::replay::result_digest_hex(result);

  const auto n = static_cast<std::int64_t>(job.lower_bounds->size());
  rep.attempted += n;
  const saath::EngineStats& st = engine.stats();
  rep.check(sink.failed() == 0,
            "sink: " + std::to_string(sink.failed()) +
                " coflows missing, duplicated or below their isolation bound",
            sink.failed());
  rep.check(st.abandoned_coflow_ids.empty() && st.rejected_events == 0,
            "engine abandoned or rejected coflows",
            static_cast<std::int64_t>(st.abandoned_coflow_ids.size()) +
                st.rejected_events);
  if (job.config.record_results) {
    rep.check(static_cast<std::int64_t>(result.coflows.size()) == n,
              "result holds " + std::to_string(result.coflows.size()) +
                  " records for " + std::to_string(n) + " coflows",
              0);
  }

  if (tracer == nullptr) {
    rep.check(rep.best.fold(rounds, t1, t2),
              "a pass ran different rounds (the run is not deterministic)", 0);
  }
  if (rep.ccts.empty()) rep.ccts = sink.ccts();

  if (tracer != nullptr) {
    const auto tot = [tracer](SpanKind k) {
      return static_cast<double>(tracer->totals(k).total_ns) / 1e9;
    };
    const TimedScheduler::Counters& c = timed.counters();
    const double hooks = tot(SpanKind::kHookArrival) + tot(SpanKind::kHookFlow) +
                         tot(SpanKind::kHookCoflow) +
                         tot(SpanKind::kHookQuarantine);
    const double busy = static_cast<double>(c.busy_ns) / 1e9;
    const double ingest = static_cast<double>(st.ingest_ns) / 1e9;
    const double advance = static_cast<double>(st.advance_ns) / 1e9;
    const double schedule = static_cast<double>(st.schedule_ns) / 1e9;
    const double epochs = static_cast<double>(st.epochs);
    const double rounds = static_cast<double>(engine.scheduling_rounds());
    rep.layer("sched.rounds", static_cast<double>(c.rounds));
    rep.layer("sched.busy_s", busy);
    rep.layer("sched.rated_flows", static_cast<double>(c.rated_flows));
    rep.layer("sched.hook_calls", static_cast<double>(c.hook_calls));
    rep.layer("sched.hook_s", hooks);
    rep.layer("sched.valid_until_s", tot(SpanKind::kValidUntil));
    rep.layer("sim.run_s", tot(SpanKind::kRun));
    rep.layer("sim.self_s",
              static_cast<double>(tracer->totals(SpanKind::kRun).self_ns) / 1e9);
    rep.layer("sim.ingest_s", ingest);
    rep.layer("sim.advance_s", advance);
    rep.layer("sim.schedule_s", schedule);
    rep.layer("sim.round_overhead_s", schedule - busy);
    rep.layer("sim.unattributed_s",
              static_cast<double>(st.run_wall_ns) / 1e9 - ingest - schedule -
                  advance);
    rep.layer("sim.epochs", epochs);
    // UC-TCP also re-schedules on completions (rounds > epochs): no skip.
    rep.layer("sim.skip_frac",
              epochs > 0 ? std::max(0.0, (epochs - rounds) / epochs) : 0);
    rep.layer("sim.flow_completions", static_cast<double>(st.flow_completions));
    rep.layer("sim.heap_pushes_per_completion",
              st.flow_completions > 0
                  ? static_cast<double>(st.heap_pushes) /
                        static_cast<double>(st.flow_completions)
                  : 0);
    rep.layer("sim.peak_live", static_cast<double>(st.peak_live_coflows));
    rep.layer("sim.mean_live",
              epochs > 0 ? static_cast<double>(st.live_coflow_epoch_sum) / epochs
                         : 0);
    rep.layer("sim.reclaimed", static_cast<double>(st.reclaimed_coflows));
    rep.layer("source.calls", static_cast<double>(source->calls()));
    rep.layer("source.busy_s", tot(SpanKind::kSourcePeek) +
                                   tot(SpanKind::kSourceNext) +
                                   tot(SpanKind::kSourceFeedback));
    rep.layer("trace.parse_s", parse_s);
    rep.layer("sink.busy_s",
              tot(SpanKind::kSinkComplete) + tot(SpanKind::kSinkRunEnd));
    if (const auto* saath_sched =
            dynamic_cast<const saath::SaathScheduler*>(sched.get())) {
      const saath::SaathPhaseStats& ps = saath_sched->phase_stats();
      rep.layer("saath.order_s", static_cast<double>(ps.order_ns) / 1e9);
      rep.layer("saath.admit_s", static_cast<double>(ps.admit_ns) / 1e9);
      rep.layer("saath.conserve_s", static_cast<double>(ps.conserve_ns) / 1e9);
      rep.layer("saath.crossing_s", static_cast<double>(ps.crossing_ns) / 1e9);
      rep.layer("saath.delta_rounds", static_cast<double>(ps.delta_rounds));
      rep.layer("saath.replayed_ranks", static_cast<double>(ps.replayed_ranks));
      rep.layer("saath.backfill_flows", static_cast<double>(ps.backfill_flows));
      rep.layer("saath.backfill_hit_frac",
                ps.backfill_missed > 0
                    ? static_cast<double>(ps.backfill_candidates) /
                          static_cast<double>(ps.backfill_missed)
                    : 0);
      rep.layer("saath.conserve_replays",
                static_cast<double>(ps.conserve_replays));
    }
  }
  return out;
}

/// Replicas of the serial engine that run each pass at once, one per core
/// (at most 4): more repetitions of every round per second of run, spread
/// over vCPUs whose slow phases come and go at different times (README.md).
int replica_count() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                    4);
}

/// Runs `body` on every replica at once, each with its own report, and
/// merges the reports. Replica 0 runs on the calling thread and is the only
/// one traced; the untraced replicas beside it give the tracing overhead
/// (a same-time comparison, so host drift cancels). Returns replica 0's
/// pass wall time.
double replicate(Report& rep, Tracer* tracer,
                 const std::function<double(Tracer*, Report&)>& body) {
  const auto n = static_cast<std::size_t>(replica_count());
  std::vector<Report> local(n);
  std::vector<double> wall(n, 0.0);
  {
    std::vector<std::jthread> threads;
    for (std::size_t r = 1; r < n; ++r) {
      threads.emplace_back([&body, &out = local[r], &w = wall[r]] {
        try {
          w = body(nullptr, out);
        } catch (const std::exception& e) {
          out.check(false, std::string("replica failed: ") + e.what(), 0);
        }
      });
    }
    wall[0] = body(tracer, local[0]);
  }
  for (Report& l : local) rep.merge(std::move(l));
  if (tracer != nullptr && n > 1) {
    rep.overhead.push_back(
        wall[0] / median(std::vector<double>(wall.begin() + 1, wall.end())) -
        1.0);
  }
  return wall[0];
}

/// Runs max(1, round(seconds / nominal_pass_s)) identical passes, so every
/// run of a workload does the same work whatever the host speed (peak RSS
/// and the sample counts depend on it); `nominal_pass_s` is the pass's wall
/// time on the reference host (README.md). In a traced run every pass is
/// traced (on replica 0).
void repeat_passes(const Options& opt, double nominal_pass_s, Report& rep,
                   const std::function<double(Tracer*)>& pass) {
  const long passes = std::max(1L, std::lround(opt.seconds / nominal_pass_s));
  for (long i = 0; i < passes; ++i) {
    std::unique_ptr<Tracer> tracer;
    if (opt.trace) {
      tracer = std::make_unique<Tracer>(rep.chrome ? 0 : 100'000);
    }
    rep.pass_wall.push_back(pass(tracer.get()));
    if (opt.trace) {
      ++rep.traced_passes;
      if (!rep.chrome) rep.chrome = std::move(tracer);
    }
  }
}

/// `reps` extra set-ups (build the job's source, scheduler and engine, then
/// drop them) added to the run's set-up samples. Called before every pass,
/// so the samples span the whole run.
void extra_setups(const EngineJob& job, int reps, Report& rep) {
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    double parse_s = 0;
    auto source = job.open(parse_s);
    auto sched = saath::make_scheduler(job.scheduler);
    Engine engine(std::move(source), *sched, job.config);
    rep.setup_s.push_back(seconds_between(t0, now_ns()));
  }
}

/// The host metrics over `w` from the untraced passes (a traced run folds
/// none and reports per-layer metrics instead).
void summarize(Report& rep, Window w, std::int64_t coflows) {
  if (rep.best.passes == 0) return;
  rep.check(host_stats(rep.best, w, coflows, rep.host),
            "the timed rounds never reached the measurement window", 0);
}

/// Shared body of the engine-only workloads.
void run_engine_workload(const Options& opt, const EngineJob& job,
                         double nominal_pass_s, int setup_reps, Report& rep) {
  rep.digest_hex = reference_pass(job).result_digest;
  repeat_passes(opt, nominal_pass_s, rep, [&](Tracer* tracer) {
    return replicate(rep, tracer, [&](Tracer* t, Report& local) {
      extra_setups(job, setup_reps, local);
      const PassOut p = engine_pass(job, t, local);
      local.setup_s.push_back(p.setup_s);
      local.digests.push_back(p.result_digest);
      return p.wall_s;
    });
  });
  const auto n = static_cast<std::int64_t>(job.lower_bounds->size());
  rep.check_digests(n);
  summarize(rep, Window{}, n);
}

// ---------------------------------------------------------- workloads

/// A seeded relabeling of `ports` ports: --seed's way of making a distinct
/// input from a fixed base workload without changing its contention regime.
std::vector<int> port_permutation(int ports, std::mt19937_64& rng) {
  std::vector<int> perm(static_cast<std::size_t>(ports));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  return perm;
}

void relabel(CoflowSpec& c, const std::vector<int>& perm) {
  for (saath::FlowSpec& f : c.flows) {
    f.src = perm[static_cast<std::size_t>(f.src)];
    f.dst = perm[static_cast<std::size_t>(f.dst)];
  }
}

/// fb-saath / fb-uctcp: the FB-like trace written in coflow-benchmark
/// format and loaded back through trace::parse_fb_trace, as a user replays
/// the real FB trace. --seed relabels the ports (a random permutation) and
/// delays each arrival by 0-2 ms: a distinct input with the same contention
/// regime, so CCT percentiles move by a few percent at most across seeds
/// (whereas the generator's own seed moves them by 2x; see README.md).
void run_fb(const Options& opt, const std::string& scheduler, Report& rep) {
  saath::trace::Trace trace = saath::trace::synth_fb_trace();
  std::mt19937_64 rng(opt.seed);
  const std::vector<int> perm = port_permutation(trace.num_ports, rng);
  std::uniform_int_distribution<int> jitter_ms(0, 2);
  for (CoflowSpec& c : trace.coflows) {
    relabel(c, perm);
    c.arrival = saath::msec(c.arrival / 1000 + jitter_ms(rng));
  }
  const std::string path = opt.out_dir + "/run/fb-" +
                           std::to_string(opt.seed) + "-" +
                           std::to_string(::getpid()) + ".txt";
  {
    std::ofstream out(path);
    saath::trace::write_fb_trace(out, trace);
    if (!out) throw std::runtime_error("cannot write " + path);
  }

  EngineJob job;
  job.scheduler = scheduler;
  saath::apply_scheduler_sim_overrides(scheduler, job.config);
  job.open = [path](double& parse_s) {
    const std::int64_t t0 = now_ns();
    std::ifstream in(path);
    saath::trace::Trace t = saath::trace::parse_fb_trace(in, "fb");
    parse_s = seconds_between(t0, now_ns());
    return std::make_shared<saath::workload::TraceSource>(std::move(t));
  };
  // Bounds from the parsed trace (what the program actually loads).
  std::ifstream in(path);
  const saath::trace::Trace loaded = saath::trace::parse_fb_trace(in, "fb");
  std::vector<double> bounds(loaded.coflows.size(), 0.0);
  for (const CoflowSpec& c : loaded.coflows) {
    if (c.id.value < 0 ||
        static_cast<std::size_t>(c.id.value) >= bounds.size()) {
      throw std::runtime_error("parsed trace ids are not dense");
    }
    bounds[static_cast<std::size_t>(c.id.value)] =
        isolation_bound(c, job.config.port_bandwidth);
  }
  job.lower_bounds = &bounds;
  run_engine_workload(opt, job, scheduler == "saath" ? 1.0 : 2.2, 3, rep);
  std::filesystem::remove(path);
}

/// The bench/workload_stream shape: 256 uniform ports, mostly small
/// CoFlows, about 40% load.
saath::workload::SynthStreamConfig stream_shape(std::uint64_t seed,
                                                std::int64_t coflows) {
  saath::workload::SynthStreamConfig cfg;
  cfg.name = "stream-saath";
  cfg.num_coflows = coflows;
  cfg.seed = seed;
  cfg.shape.num_ports = 256;
  cfg.shape.port_zipf = 0.0;
  cfg.shape.p_single = 0.7;
  cfg.shape.p_narrow_given_multi = 0.9;
  cfg.shape.p_small_given_narrow = 0.95;
  cfg.shape.p_small_given_wide = 0.9;
  cfg.mean_gap = saath::usec(500);
  cfg.p_burst = 0.1;
  cfg.burst_gap = saath::usec(150);
  cfg.bands.small_lo = 1.0 * saath::kMB;
  cfg.bands.small_hi = 8.0 * saath::kMB;
  cfg.bands.large_lo = 8.0 * saath::kMB;
  cfg.bands.large_hi = 64.0 * saath::kMB;
  return cfg;
}

/// Warm-up rule: the live set and the per-round cost ramp for the first
/// ~20k completions of this shape (throughput falls from ~18k/s to a ~7k/s
/// plateau), so the timed window covers the rounds that begin between 24k
/// and 60k completions.
constexpr std::int64_t kStreamCoflows = 64'000;
constexpr Window kStreamWindow{24'000, 60'000};

/// The base stream (generator seed 7, as bench/workload_stream) with its
/// ports relabeled and every arrival delayed by 0-50 µs, in order. Each
/// generator seed accumulates its own mix of long-lived large CoFlows, which
/// moved window throughput by up to ~20% from seed to seed (seed 9 fastest,
/// seed 2 slowest in four ten-seed sets); perturbing one base stream keeps
/// that input effect out of the run-to-run spread.
class PerturbedStream final : public WorkloadSource {
 public:
  PerturbedStream(std::int64_t coflows, std::uint64_t seed)
      : base_(stream_shape(7, coflows)),
        rng_(seed),
        perm_(port_permutation(base_.num_ports(), rng_)) {}

  std::string name() const override { return base_.name(); }
  int num_ports() const override { return base_.num_ports(); }
  saath::SimTime peek_next_time() override {
    if (!staged_ && base_.peek_next_time() != saath::kNever) {
      WorkloadEvent ev = base_.next();
      relabel(ev.coflow, perm_);
      last_ = std::max(last_, ev.time + delay_(rng_));
      ev.time = ev.coflow.arrival = last_;
      staged_ = std::move(ev);
    }
    return staged_ ? staged_->time : saath::kNever;
  }
  WorkloadEvent next() override {
    (void)peek_next_time();
    WorkloadEvent ev = std::move(*staged_);
    staged_.reset();
    return ev;
  }

 private:
  saath::workload::SynthSource base_;
  std::mt19937_64 rng_;
  std::vector<int> perm_;
  std::uniform_int_distribution<saath::SimTime> delay_{0, 50};
  saath::SimTime last_ = 0;
  std::optional<WorkloadEvent> staged_;
};

/// Journals the perturbed stream through replay::RecordingSource; returns
/// the per-id isolation bounds.
std::vector<double> write_stream_journal(const std::string& path,
                                         std::uint64_t seed,
                                         std::int64_t coflows,
                                         const SimConfig& config) {
  std::ofstream out(path);
  saath::replay::RecordingSource rec(
      std::make_shared<PerturbedStream>(coflows, seed), out, config,
      static_cast<std::int64_t>(seed));
  std::vector<double> bounds(static_cast<std::size_t>(coflows), 0.0);
  while (rec.peek_next_time() != saath::kNever) {
    const WorkloadEvent ev = rec.next();
    const auto id = static_cast<std::size_t>(ev.coflow.id.value);
    if (ev.kind != WorkloadEvent::Kind::kArrival || id >= bounds.size()) {
      throw std::runtime_error("unexpected stream event");
    }
    bounds[id] = isolation_bound(ev.coflow, config.port_bandwidth);
  }
  if (!out) throw std::runtime_error("cannot write " + path);
  return bounds;
}

EngineJob stream_job(const std::string& path,
                     const std::vector<double>& bounds) {
  EngineJob job;
  job.scheduler = "saath";
  job.lower_bounds = &bounds;
  // The replayed config is the recorded one; read it once up front.
  {
    std::ifstream in(path);
    job.config = saath::replay::ReplaySource(in).recorded_config();
  }
  job.open = [path](double& parse_s) {
    // The stream owns its ifstream: the journal is parsed lazily as the
    // engine pulls, so the file must outlive the source.
    struct JournalSource final : WorkloadSource {
      explicit JournalSource(const std::string& p) : in(p), replay(in) {}
      std::string name() const override { return replay.name(); }
      int num_ports() const override { return replay.num_ports(); }
      saath::SimTime peek_next_time() override {
        return replay.peek_next_time();
      }
      WorkloadEvent next() override { return replay.next(); }
      std::ifstream in;
      saath::replay::ReplaySource replay;
    };
    const std::int64_t t0 = now_ns();
    auto src = std::make_shared<JournalSource>(path);
    parse_s = seconds_between(t0, now_ns());
    return src;
  };
  return job;
}

/// stream-saath: a stationary open-ended stream generated from --seed into
/// a replay journal, streamed back lazily with records off.
void run_stream(const Options& opt, Report& rep) {
  SimConfig config;
  config.record_results = false;
  const std::string base = opt.out_dir + "/run/stream-" +
                           std::to_string(opt.seed) + "-" +
                           std::to_string(::getpid());
  const std::string path = base + ".journal";
  const std::string check_path = base + "-check.journal";
  const std::vector<double> bounds =
      write_stream_journal(path, opt.seed, kStreamCoflows, config);
  // The transparency check runs on a 3k-coflow prefix of the same stream.
  const std::vector<double> check_bounds =
      write_stream_journal(check_path, opt.seed, 3'000, config);

  const EngineJob check = stream_job(check_path, check_bounds);
  const std::uint64_t plain = reference_pass(check).sink_digest;
  Report scratch;
  const PassOut decorated = engine_pass(check, nullptr, scratch);
  rep.attempted += scratch.attempted;
  rep.check(decorated.sink_digest == plain && scratch.errors.empty(),
            "decorated stream digest differs from the undecorated run",
            static_cast<std::int64_t>(check_bounds.size()));

  const EngineJob job = stream_job(path, bounds);
  repeat_passes(opt, 6.5, rep, [&](Tracer* tracer) {
    return replicate(rep, tracer, [&](Tracer* t, Report& local) {
      extra_setups(job, 60, local);
      const PassOut p = engine_pass(job, t, local);
      local.setup_s.push_back(p.setup_s);
      local.digests.push_back(hex64(p.sink_digest));
      return p.wall_s;
    });
  });
  // Every pass and replica replays the same journal: one digest.
  rep.digest_hex = rep.digests.front();
  rep.check_digests(static_cast<std::int64_t>(bounds.size()));
  summarize(rep, kStreamWindow, kStreamCoflows);
  std::filesystem::remove(path);
  std::filesystem::remove(check_path);
}

/// svc-saath: small single-flow CoFlows (the bench/service_ingest script
/// shape) streamed by one ServiceClient into an in-process ServiceDaemon on
/// a Unix socket, as fast as the client can send. As in that script, the
/// senders rotate round-robin over the ports and each receiver sits a fixed
/// offset away, so CoFlows never contend and the engine's work per event is
/// trivial: the measurement is the wire, framing and ingress path. --seed
/// picks the rotation start, the offset and the flow sizes.
constexpr int kSvcPorts = 32;
constexpr int kSvcCoflows = 100'000;

std::vector<WorkloadEvent> svc_script(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const int start = std::uniform_int_distribution<int>(0, kSvcPorts - 1)(rng);
  const int offset = std::uniform_int_distribution<int>(1, kSvcPorts - 1)(rng);
  std::uniform_int_distribution<int> size(0, 12);
  std::vector<WorkloadEvent> evs;
  evs.reserve(kSvcCoflows);
  for (int i = 0; i < kSvcCoflows; ++i) {
    CoflowSpec spec;
    spec.id = saath::CoflowId{i};
    spec.arrival = i;  // 1 µs apart
    const int src = (start + i) % kSvcPorts;
    spec.flows = {{src, (src + offset) % kSvcPorts,
                   static_cast<saath::Bytes>(1000 + 64 * size(rng))}};
    evs.push_back(WorkloadEvent::arrival(std::move(spec)));
  }
  return evs;
}

struct Served {
  double setup_s = 0;   // daemon start + client connect
  double window_s = 0;  // first event sent -> END received
  saath::service::ServiceReport report;
  saath::service::ClientReport client;
  std::string stats;
};

/// One daemon lifetime: start, connect, stream `events`, FIN, wait for END.
Served serve(const Options& opt, const std::vector<WorkloadEvent>& events,
             const SimConfig& config, Tracer* tracer) {
  static int serial = 0;
  saath::service::DaemonConfig dc;
  dc.address = "unix:" + opt.out_dir + "/run/svc-" +
               std::to_string(::getpid()) + "-" + std::to_string(serial++) +
               ".sock";
  dc.num_ports = kSvcPorts;
  dc.scheduler = "saath";
  dc.sim = config;
  dc.expect_clients = 1;
  dc.workload_name = "svc-saath";
  saath::service::VectorSource src("svc-saath", kSvcPorts, events);
  Served out;
  const std::int64_t t0 = now_ns();
  saath::service::ServiceDaemon daemon(dc);
  daemon.start();
  saath::service::ServiceClient client(
      saath::service::ClientOptions{daemon.address(), "coordbench"});
  bool ok = client.connect("svc-saath", kSvcPorts);
  const std::int64_t t1 = now_ns();
  if (ok && !events.empty()) {
    Scope s(tracer, SpanKind::kClientSend);
    ok = client.drive(src);
  }
  if (ok) {
    Scope s(tracer, SpanKind::kClientDrain);
    ok = client.finish();
  }
  const std::int64_t t2 = now_ns();
  if (!ok) daemon.shutdown();  // no FIN will come; drain what arrived
  out.report = daemon.wait();
  out.client = client.report();
  out.stats = daemon.stats_text();
  if (!ok && out.client.error.empty()) out.client.error = "client failed";
  out.setup_s = seconds_between(t0, t1);
  out.window_s = seconds_between(t1, t2);
  return out;
}

/// Checks one service run of `n` coflows; returns its rejected count.
std::int64_t check_served(const Served& s, std::int64_t n,
                          const std::string& offline_digest, Report& rep) {
  const saath::service::ClientReport& cr = s.client;
  rep.attempted += n;
  rep.check(s.report.ok && cr.error.empty(),
            "service run failed: " + cr.error + s.report.error, n);
  rep.check(s.report.digest_hex == offline_digest &&
                cr.digest_hex == offline_digest,
            "service END digest " + cr.digest_hex + " != offline " +
                offline_digest,
            n);
  const std::int64_t rejected = std::max<std::int64_t>(cr.rejected, 0) +
                                cr.rejects_seen +
                                s.report.engine_stats.rejected_events;
  rep.check(rejected == 0 && cr.dones == n && s.report.completions == n,
            "service: " + std::to_string(cr.dones) + " DONE lines, " +
                std::to_string(rejected) + " rejected, " +
                std::to_string(n) + " sent",
            n - std::min<std::int64_t>(cr.dones, n) + rejected);
  return rejected;
}

void run_svc(const Options& opt, Report& rep) {
  const std::vector<WorkloadEvent> script = svc_script(opt.seed);
  // A long-lived daemon runs with records off (memory O(live)); its END
  // digest then covers the makespan only, so the per-CoFlow digest check
  // runs once on a records-on prefix of the script, as bench/
  // service_ingest does.
  SimConfig config;
  saath::apply_scheduler_sim_overrides("saath", config);
  config.record_results = false;
  std::vector<double> bounds(script.size(), 0.0);
  for (const WorkloadEvent& ev : script) {
    bounds[static_cast<std::size_t>(ev.coflow.id.value)] =
        isolation_bound(ev.coflow, config.port_bandwidth);
  }
  const auto offline_job = [&bounds, &config](
                               const std::vector<WorkloadEvent>& events) {
    EngineJob job;
    job.scheduler = "saath";
    job.config = config;
    job.lower_bounds = &bounds;
    job.open = [&events](double& parse_s) {
      parse_s = 0;
      return std::make_shared<saath::service::VectorSource>(
          "svc-saath", kSvcPorts, events);
    };
    return job;
  };

  {
    const std::vector<WorkloadEvent> prefix(script.begin(),
                                            script.begin() + 5'000);
    const std::vector<double> prefix_bounds(bounds.begin(),
                                            bounds.begin() + 5'000);
    EngineJob job = offline_job(prefix);
    job.config.record_results = true;
    job.lower_bounds = &prefix_bounds;
    const std::string offline = reference_pass(job).result_digest;
    check_served(serve(opt, prefix, job.config, nullptr),
                 static_cast<std::int64_t>(prefix.size()), offline, rep);
  }

  // The offline run of the whole script is where this workload's rounds
  // and CCTs are measured (the daemon builds its scheduler internally);
  // its decorated passes must match the undecorated reference.
  const EngineJob offline = offline_job(script);
  const Reference reference = reference_pass(offline);
  const std::string& makespan_digest = reference.result_digest;
  rep.digest_hex = hex64(reference.sink_digest);

  repeat_passes(opt, 1.6, rep, [&](Tracer* tracer) {
    for (int i = 0; i < 6; ++i) {  // idle start/connect/FIN set-up samples
      const Served idle = serve(opt, {}, config, nullptr);
      rep.setup_s.push_back(idle.setup_s);
      rep.check(idle.report.ok && idle.client.error.empty(),
                "idle service cycle failed", 0);
    }
    const Served s = serve(opt, script, config, tracer);
    const std::int64_t n = kSvcCoflows;
    const std::int64_t rejected = check_served(s, n, makespan_digest, rep);
    rep.setup_s.push_back(s.setup_s);
    if (tracer == nullptr) {
      rep.served_per_s.push_back(static_cast<double>(n) / s.window_s);
    } else {
      const saath::EngineStats& st = s.report.engine_stats;
      std::istringstream stats(s.stats);
      std::string word, key, val;
      while (stats >> word >> key >> val) {
        if (key == "admission_wait_p50_us") {
          rep.layer("service.ingress_wait_p50_us", std::stod(val));
        } else if (key == "admission_wait_p99_us") {
          rep.layer("service.ingress_wait_p99_us", std::stod(val));
        }
      }
      rep.layer("service.engine_busy_frac",
                st.run_wall_ns > 0
                    ? static_cast<double>(st.schedule_ns + st.advance_ns) /
                          static_cast<double>(st.run_wall_ns)
                    : 0);
      rep.layer("service.rounds", static_cast<double>(st.epochs));
      rep.layer("service.rejected", static_cast<double>(rejected));
      rep.layer("service.dones", static_cast<double>(s.client.dones));
      rep.layer("client.send_s",
                static_cast<double>(
                    tracer->totals(SpanKind::kClientSend).total_ns) /
                    1e9);
      rep.layer("client.drain_s",
                static_cast<double>(
                    tracer->totals(SpanKind::kClientDrain).total_ns) /
                    1e9);
    }
    (void)replicate(rep, tracer, [&](Tracer* t, Report& local) {
      const PassOut p = engine_pass(offline, t, local);
      local.digests.push_back(hex64(p.sink_digest));
      return p.wall_s;
    });
    return s.window_s;
  });
  rep.check_digests(kSvcCoflows);
  summarize(rep, Window{}, kSvcCoflows);
  // The daemon's rounds differ from pass to pass (thread hand-offs batch
  // the events differently), so its throughput is best of whole passes.
  if (!rep.served_per_s.empty()) {
    rep.host.coflows_per_s =
        *std::max_element(rep.served_per_s.begin(), rep.served_per_s.end());
  }
}

// ------------------------------------------------------------ output

std::string provenance_json(const Options& opt) {
  std::string flags = COORDBENCH_FLAGS;
  std::string march = "default";
  if (const auto at = flags.find("-march="); at != std::string::npos) {
    march = flags.substr(at + 7, flags.find(' ', at) - at - 7);
  }
#if defined(__AVX512F__)
  march += " (avx512f)";
#elif defined(__AVX2__)
  march += " (avx2)";
#elif defined(__SSE4_2__)
  march += " (sse4.2)";
#else
  march += " (baseline isa)";
#endif
  std::ostringstream o;
  o << "{\"commit\":\"" << opt.commit << "\",\"build_type\":\""
    << COORDBENCH_BUILD_TYPE << "\",\"compiler\":\"" << COORDBENCH_COMPILER
    << "\",\"flags\":\"" << flags << "\",\"march\":\"" << march
    << "\",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
    << "}";
  return o.str();
}

/// Per-layer self time of Engine::run per traced pass; rows add up to
/// sim.run_s by construction (every span the run encloses is a direct
/// child of it).
std::string layer_table(const Report& rep) {
  const auto mean = [&rep](const char* k) {
    const auto it = rep.layer_sum.find(k);
    return it == rep.layer_sum.end() ? 0.0
                                     : it->second / rep.traced_passes;
  };
  const double run = mean("sim.run_s");
  const std::pair<const char*, double> rows[] = {
      {"sim (engine self)", mean("sim.self_s")},
      {"sched (schedule)", mean("sched.busy_s")},
      {"sched (valid_until)", mean("sched.valid_until_s")},
      {"spatial (scheduler hooks)", mean("sched.hook_s")},
      {"workload (source)", mean("source.busy_s")},
      {"sink", mean("sink.busy_s")},
  };
  std::ostringstream o;
  char line[160];
  double sum = 0;
  o << "layer self time per traced pass (rows add up to sim.run_s)\n";
  for (const auto& [name, v] : rows) {
    sum += v;
    std::snprintf(line, sizeof line, "  %-28s %12.6f s  %6.2f%%\n", name, v,
                  run > 0 ? 100.0 * v / run : 0.0);
    o << line;
  }
  std::snprintf(line, sizeof line, "  %-28s %12.6f s  (sim.run_s %.6f s)\n",
                "total", sum, run);
  o << line;
  return o.str();
}

void print_metric(std::string& json, bool& first, const MetricDef& m,
                  double v) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name, v, m.unit);
  json += buf;
  first = false;
}

int emit(const Options& opt, Report& rep) {
  const std::string prov = provenance_json(opt);
  std::printf("provenance %s\n", prov.c_str());
  std::printf("digest %s\n", rep.digest_hex.c_str());
  std::string metrics;
  bool first = true;
  bool reportable = true;
  if (!opt.trace) {
    std::size_t beyond_c50 = 0;
    std::size_t beyond_c90 = 0;
    std::vector<double> ccts = rep.ccts;
    const HostStats& h = rep.host;
    if (h.rounds == 0 || ccts.empty()) {
      std::fprintf(stderr, "no rounds or CCTs were measured\n");
      return 3;
    }
    const double c50 = percentile(ccts, 50, beyond_c50);
    const double c90 = percentile(ccts, 90, beyond_c90);
    const double values[] = {median(rep.setup_s), h.coflows_per_s,
                             h.round_p50_us,      h.round_p99_us,
                             c50,                 c90,
                             peak_rss_mb()};
    std::printf("pass wall s:");
    for (const double w : rep.pass_wall) std::printf(" %.4f", w);
    std::printf("\nsetup_s: median of %zu set-ups\n", rep.setup_s.size());
    if (rep.served_per_s.empty()) {
      std::printf("coflows_per_s: %lld coflows in %.6f s, best of %d passes\n",
                  static_cast<long long>(h.coflows), h.seconds,
                  rep.best.passes);
    } else {
      std::printf("coflows_per_s: best of %zu daemon passes:",
                  rep.served_per_s.size());
      for (const double v : rep.served_per_s) std::printf(" %.0f", v);
      std::printf("\n");
    }
    std::printf(
        "round_p50_us/p99_us: %zu rounds, each the best of %d passes; %zu "
        "rounds beyond p99\n",
        h.rounds, rep.best.passes, h.beyond_p99);
    std::printf("cct_p50_s/p90_s: %zu coflows, %zu beyond p90\n", ccts.size(),
                beyond_c90);
    if (h.beyond_p99 < 10 || beyond_c90 < 10) {
      std::fprintf(stderr, "too few samples beyond p99/p90 to report\n");
      reportable = false;
    }
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      std::printf("  %-16s %14.6f %s\n", kEndToEnd[i].name, values[i],
                  kEndToEnd[i].unit);
      print_metric(metrics, first, kEndToEnd[i], values[i]);
    }
  } else {
    rep.layer_sum["tracing.overhead_frac"] =
        median(rep.overhead) * rep.traced_passes;
    std::printf("traced passes %d, %d replicas; overhead samples %zu\n",
                rep.traced_passes, replica_count(), rep.overhead.size());
    const std::string table = layer_table(rep);
    std::printf("%s", table.c_str());
    for (const MetricDef& m : kPerLayer) {
      const auto it = rep.layer_sum.find(m.name);
      const double v =
          it == rep.layer_sum.end() ? 0.0 : it->second / rep.traced_passes;
      std::printf("  %-34s %16.6f %s\n", m.name, v, m.unit);
      print_metric(metrics, first, m, v);
    }
    const std::string dir = opt.out_dir + "/traces/";
    const std::string stem =
        dir + opt.workload + "-seed" + std::to_string(opt.seed);
    if (std::FILE* f = std::fopen((stem + ".trace.json").c_str(), "w")) {
      rep.chrome->write_chrome(f, prov);
      std::fclose(f);
    }
    if (std::FILE* f = std::fopen((stem + ".layers.txt").c_str(), "w")) {
      std::fprintf(f, "%s", table.c_str());
      std::fclose(f);
    }
    std::printf("wrote %s.trace.json (%zu spans) and %s.layers.txt\n",
                stem.c_str(), rep.chrome->recorded(), stem.c_str());
  }
  for (const std::string& e : rep.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  if (!reportable) return 3;
  const bool correct = rep.errors.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(rep.attempted),
      static_cast<long long>(rep.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int run(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  std::filesystem::create_directories(opt.out_dir + "/run");
  std::filesystem::create_directories(opt.out_dir + "/traces");
  Report rep;
  if (opt.workload == "fb-saath") {
    run_fb(opt, "saath", rep);
  } else if (opt.workload == "fb-uctcp") {
    run_fb(opt, "uc-tcp", rep);
  } else if (opt.workload == "stream-saath") {
    run_stream(opt, rep);
  } else if (opt.workload == "svc-saath") {
    run_svc(opt, rep);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  return emit(opt, rep);
}

}  // namespace
}  // namespace coordbench

int main(int argc, char** argv) {
  try {
    return coordbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coordbench: %s\n", e.what());
    return 2;
  }
}
