// Delta-driven schedule phase benchmark — the perf trajectory anchor for
// the order phase (queue assignment + admission ordering) and the
// port-indexed work-conservation backfill.
//
// Two measurements:
//
//  * steady-churn snapshot: 500 CoFlows live on 150 ports, one flow
//    completion per 8 ms round delivered exactly the way the engine does
//    (lifecycle hook + SchedulerDelta). Three schedulers see the same rounds:
//    production Saath on an engine-style stream (delta rounds: re-keys one
//    CoFlow and re-walks only the dirtied suffix of the materialized order),
//    production Saath with no stream (every round takes all 500 CoFlows as
//    candidates and re-keys the whole order — the order_ratio baseline,
//    gated >= 5x), and the reference Saath of tests/reference/ (whose dense
//    missed-list rescan is the conserve_ratio baseline, gated >= 3x).
//
//  * end-to-end engine run: the FB-scale trace through production Saath on
//    the engine's stream and with no stream (reference::FullRoute), with
//    the quiescent-epoch skip on (the no-stream side takes its skip
//    triggers from the reference's O(F·W) scan) — epochs/sec plus how many
//    rounds ran incrementally and how many admission ranks were replayed.
//
//  * OrderIndex primitives: ns per re-key (the in-place update of the entry
//    at a CoFlow's slot; no lookup, since the caller holds the slot) and
//    per materialize, at 50, 500 and 5,000 entries with one entry or 10% of
//    the entries re-keyed between materializations.
//
// The first two measurements verify every side produces identical rate
// streams / SimResults; the numbers are meaningless otherwise (exit 2).
//
//   $ ./sched_order [--coflows N] [--rounds N] [--out BENCH_sched_order.json]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "reference/reference.h"
#include "sched/order_index.h"
#include "sched/saath.h"
#include "sim/engine.h"
#include "trace/synth.h"

namespace saath {
namespace {

using Clock = std::chrono::steady_clock;

struct Churn {
  std::vector<std::unique_ptr<CoflowState>> states;
  std::vector<CoflowState*> active;

  explicit Churn(int n, std::uint64_t seed) {
    trace::SynthConfig cfg;
    cfg.num_ports = 150;
    cfg.num_coflows = n;
    cfg.seed = seed;
    const auto trace = synth_fb_trace(cfg);
    std::int64_t next_flow = 0;
    for (const auto& spec : trace.coflows) {
      states.push_back(std::make_unique<CoflowState>(spec, FlowId{next_flow}));
      next_flow += spec.width();
      active.push_back(states.back().get());
    }
  }
};

struct SnapshotMeasurement {
  double order_ns_per_round = 0;
  double crossing_ns_per_round = 0;
  /// Crossing ns per recross_ entry (CoFlow whose crossing a round
  /// re-programmed or kept on its memo).
  double crossing_ns_per_entry = 0;
  double admit_ns_per_round = 0;
  double conserve_ns_per_round = 0;
  /// Conserve ns per slot entry the backfill read and per allocation it
  /// made, over the measured rounds.
  double conserve_ns_per_entry = 0;
  double conserve_ns_per_alloc = 0;
  std::int64_t delta_rounds = 0;
  std::int64_t replayed_ranks = 0;
  std::int64_t backfill_rounds = 0;
  std::int64_t backfill_candidates = 0;
  std::int64_t backfill_missed = 0;
  std::int64_t backfill_flows = 0;
  std::int64_t backfill_allocs = 0;
  std::vector<std::size_t> digests;
};

/// Who schedules the snapshot rounds.
enum class Side {
  kStream,     // production Saath fed precise deltas on one stream
  kNoStream,   // production Saath fed stream 0 (every CoFlow, every round)
  kReference,  // tests/reference/'s from-scratch Saath
};

/// Drives `rounds` scheduling epochs over a fixed population the way the
/// engine would: one flow completion per round (round-robin over CoFlows
/// wide enough to survive it), delivered via hook + delta, with rates going
/// through a begin_epoch'd RateAssignment. The first `kWarmup` rounds —
/// where all 500 CoFlows race through the low queues at once and crossing
/// churn is maximal — are excluded from the per-round phase numbers (the
/// digest stream still covers them, so identity is checked end to end).
SnapshotMeasurement run_snapshot(int coflows, int rounds, Side side) {
  constexpr int kWarmup = 300;
  Churn churn(coflows, 7);
  SaathScheduler production;
  reference::ReferenceSaath ref;
  Scheduler& sched = side == Side::kReference
                         ? static_cast<Scheduler&>(ref)
                         : static_cast<Scheduler&>(production);
  const auto phase_stats = [&]() -> const SaathPhaseStats& {
    return side == Side::kReference ? ref.phase_stats()
                                        : production.phase_stats();
  };
  Fabric fabric(150, gbps(1));
  RateAssignment rates(150);
  SchedulerDelta delta;
  // Stream 0 makes every round take every CoFlow as a candidate.
  delta.stream_id = side == Side::kStream ? 900001 : 0;

  for (CoflowState* c : churn.active) sched.on_coflow_arrival(*c, 0);

  SimTime now = 0;
  std::size_t victim = 0;
  SnapshotMeasurement m;
  SaathPhaseStats warm;
  for (int round = 0; round < rounds; ++round) {
    if (round == kWarmup) warm = phase_stats();
    fabric.reset();
    rates.begin_epoch(now);
    sched.schedule(now, churn.active, fabric, rates, delta);
    delta.clear_marks();

    // Digest the full rate assignment: every side must emit identical
    // streams or the phase comparison is comparing different schedules.
    std::size_t digest = std::hash<long long>{}(now);
    const auto mix = [&digest](std::size_t v) {
      digest ^= v + 0x9e3779b97f4a7c15ull + (digest << 6) + (digest >> 2);
    };
    for (const CoflowState* c : churn.active) {
      mix(static_cast<std::size_t>(c->queue_index));
      for (const auto& f : c->flows()) {
        mix(std::hash<long long>{}(std::llround(f.rate() * 1e3)));
      }
    }
    m.digests.push_back(digest);

    // One completion per round, the engine way: stop the flow, update the
    // CoFlow, fire the hook, mark the delta.
    now += msec(8);
    for (std::size_t probe = 0; probe < churn.active.size(); ++probe) {
      CoflowState* c = churn.active[victim++ % churn.active.size()];
      if (c->unfinished_flows() < 2) continue;
      FlowState* pick = nullptr;
      for (auto& f : c->flows()) {
        if (!f.finished()) {
          pick = &f;
          break;
        }
      }
      rates.flow_stopped(*pick);
      c->on_flow_complete(*pick, now);
      sched.on_flow_complete(*c, *pick, now);
      // The engine marks completions plain-dirty because it only completes
      // flows at saturation (sent == size, no metric jump). This snapshot
      // kills flows mid-flight, which jumps max_flow_sent discontinuously —
      // per the SchedulerDelta contract that is a requeue event.
      delta.mark_requeue(c);
      break;
    }
  }
  const SaathPhaseStats& st = phase_stats();
  const auto rounds_measured = static_cast<double>(st.rounds - warm.rounds);
  m.order_ns_per_round =
      static_cast<double>(st.order_ns - warm.order_ns) / rounds_measured;
  m.crossing_ns_per_round =
      static_cast<double>(st.crossing_ns - warm.crossing_ns) / rounds_measured;
  const std::int64_t recrossed = st.recrossed - warm.recrossed;
  m.crossing_ns_per_entry =
      recrossed > 0 ? static_cast<double>(st.crossing_ns - warm.crossing_ns) /
                          static_cast<double>(recrossed)
                    : 0;
  m.admit_ns_per_round =
      static_cast<double>(st.admit_ns - warm.admit_ns) / rounds_measured;
  const auto conserve_ns =
      static_cast<double>(st.conserve_ns - warm.conserve_ns);
  m.conserve_ns_per_round = conserve_ns / rounds_measured;
  const std::int64_t entries = st.backfill_flows - warm.backfill_flows;
  const std::int64_t allocs = st.backfill_allocs - warm.backfill_allocs;
  m.conserve_ns_per_entry =
      entries > 0 ? conserve_ns / static_cast<double>(entries) : 0;
  m.conserve_ns_per_alloc =
      allocs > 0 ? conserve_ns / static_cast<double>(allocs) : 0;
  m.delta_rounds = st.delta_rounds;
  m.replayed_ranks = st.replayed_ranks;
  m.backfill_rounds = st.backfill_rounds;
  m.backfill_candidates = st.backfill_candidates;
  m.backfill_missed = st.backfill_missed;
  m.backfill_flows = st.backfill_flows;
  m.backfill_allocs = st.backfill_allocs;
  return m;
}

struct EngineMeasurement {
  double wall_ms = 0;
  double epochs_per_sec = 0;
  double order_us_per_round = 0;
  int epochs = 0;
  std::int64_t delta_rounds = 0;
  std::int64_t replayed_ranks = 0;
  SimResult result;
};

/// `on_stream` false drops the engine's stream, so every production Saath
/// round takes every CoFlow as a candidate; quiescent epochs are skipped on
/// the reference's scan.
EngineMeasurement run_engine(const trace::Trace& trace, bool on_stream) {
  SaathScheduler sched;
  const reference::ReferenceSaath scan;
  reference::FullRoute full_route(sched, scan);
  Scheduler& driven = on_stream ? static_cast<Scheduler&>(sched)
                                : static_cast<Scheduler&>(full_route);
  SimConfig cfg = bench::paper_sim_config();
  Engine engine(trace, driven, cfg);
  const auto t0 = Clock::now();
  EngineMeasurement m;
  m.result = engine.run();
  m.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  m.epochs = engine.scheduling_rounds();
  m.epochs_per_sec = m.epochs / (m.wall_ms / 1e3);
  const auto& st = sched.phase_stats();
  m.order_us_per_round =
      static_cast<double>(st.order_ns) / 1e3 / static_cast<double>(st.rounds);
  m.delta_rounds = st.delta_rounds;
  m.replayed_ranks = st.replayed_ranks;
  return m;
}

struct OrderIndexMeasurement {
  int entries = 0;
  int dirty = 0;
  double rekey_ns = 0;
  double materialize_ns = 0;
};

/// Re-keys `dirty` random entries of an `entries`-long OrderIndex to fresh
/// (queue, contention) keys, then materializes, for 2M / entries rounds
/// (at least 400). Entry i sits at slot i, as a caller that holds each
/// CoFlow's slot re-keys it. Each phase is timed as one block per round;
/// the mean of an empty block (the clock's own cost) is subtracted from
/// both.
OrderIndexMeasurement run_order_index(int entries, int dirty) {
  std::vector<std::unique_ptr<CoflowState>> states;
  OrderIndex idx;
  std::mt19937_64 rng(17);
  const auto fresh_key = [&rng](CoflowId id) {
    OrderKey k;
    k.queue = static_cast<int>(rng() % 10);
    k.key = static_cast<std::int64_t>(rng() % 64);
    k.arrival = id.value;
    k.id = id;
    return k;
  };
  for (int i = 0; i < entries; ++i) {
    CoflowSpec spec;
    spec.id = CoflowId{i};
    spec.flows = {{0, 1, 1000}};
    states.push_back(std::make_unique<CoflowState>(spec, FlowId{i}));
    idx.insert(static_cast<Slot>(i), states.back().get(), fresh_key(spec.id));
  }
  idx.materialize();

  const int rounds = std::max(400, 2'000'000 / entries);
  std::vector<Slot> picks(static_cast<std::size_t>(dirty));
  std::int64_t rekey_ns = 0;
  std::int64_t materialize_ns = 0;
  std::int64_t clock_ns = 0;
  for (int round = 0; round < rounds; ++round) {
    for (Slot& slot : picks) {
      slot = static_cast<Slot>(rng() % static_cast<std::uint64_t>(entries));
    }
    auto t0 = Clock::now();
    for (const Slot slot : picks) {
      idx.update(slot, fresh_key(CoflowId{static_cast<std::int64_t>(slot)}));
    }
    auto t1 = Clock::now();
    (void)idx.materialize();
    auto t2 = Clock::now();
    auto t3 = Clock::now();
    rekey_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count();
    materialize_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count();
    clock_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(t3 - t2).count();
  }
  const auto per_round = [rounds](std::int64_t ns) {
    return static_cast<double>(ns) / rounds;
  };
  OrderIndexMeasurement m;
  m.entries = entries;
  m.dirty = dirty;
  m.rekey_ns = (per_round(rekey_ns) - per_round(clock_ns)) / dirty;
  m.materialize_ns = per_round(materialize_ns) - per_round(clock_ns);
  return m;
}

int run(int argc, char** argv) {
  int coflows = 500;
  int rounds = 2000;
  std::string out = "BENCH_sched_order.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--coflows") == 0) coflows = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--rounds") == 0) rounds = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out = argv[i + 1];
  }
  out = bench::bench_out_path(out);

  bench::print_header(
      "schedule phase — delta rounds vs every-CoFlow rounds, " +
          std::to_string(coflows) + " CoFlows on 150 ports",
      "ROADMAP perf trajectory; ISSUE 3 acceptance: order ratio >= 5x");

  const auto inc = run_snapshot(coflows, rounds, Side::kStream);
  const auto full = run_snapshot(coflows, rounds, Side::kNoStream);
  const auto ref = run_snapshot(coflows, rounds, Side::kReference);

  bool identical = inc.digests == full.digests && inc.digests == ref.digests;
  const double order_ratio = inc.order_ns_per_round > 0
                                 ? full.order_ns_per_round / inc.order_ns_per_round
                                 : 0;
  const double conserve_ratio =
      inc.conserve_ns_per_round > 0
          ? ref.conserve_ns_per_round / inc.conserve_ns_per_round
          : 0;

  std::printf("%-26s %14s %14s %14s\n", "snapshot (per round)",
              "stream", "no stream", "reference");
  std::printf("%-26s %14.0f %14.0f %14.0f\n", "order ns",
              inc.order_ns_per_round, full.order_ns_per_round,
              ref.order_ns_per_round);
  std::printf("%-26s %14.0f %14.0f %14.0f\n", "admit ns",
              inc.admit_ns_per_round, full.admit_ns_per_round,
              ref.admit_ns_per_round);
  std::printf("%-26s %14.0f %14.0f %14.0f\n", "conserve ns",
              inc.conserve_ns_per_round, full.conserve_ns_per_round,
              ref.conserve_ns_per_round);
  std::printf("%-26s %14.0f %14s %14s\n", "crossing ns",
              inc.crossing_ns_per_round, "-", "-");
  std::printf("%-26s %14.1f %14s %14s\n", "crossing ns per entry",
              inc.crossing_ns_per_entry, "-", "-");
  std::printf("order-phase ratio (no stream / stream): %.1fx   "
              "delta rounds: %lld   replayed ranks: %lld   "
              "rates identical: %s\n",
              order_ratio, static_cast<long long>(inc.delta_rounds),
              static_cast<long long>(inc.replayed_ranks),
              identical ? "yes" : "NO");
  std::printf("conserve-phase ratio (reference / stream): %.1fx   "
              "backfill rounds: %lld   candidates/missed: %lld/%lld   "
              "slot entries read: %lld   allocations: %lld   "
              "entries per allocation: %.1f\n",
              conserve_ratio, static_cast<long long>(inc.backfill_rounds),
              static_cast<long long>(inc.backfill_candidates),
              static_cast<long long>(inc.backfill_missed),
              static_cast<long long>(inc.backfill_flows),
              static_cast<long long>(inc.backfill_allocs),
              inc.backfill_allocs > 0
                  ? static_cast<double>(inc.backfill_flows) /
                        static_cast<double>(inc.backfill_allocs)
                  : 0.0);
  std::printf("conserve ns per entry read: %.1f   per allocation: %.1f\n\n",
              inc.conserve_ns_per_entry, inc.conserve_ns_per_alloc);

  trace::SynthConfig tcfg;
  tcfg.num_ports = 150;
  tcfg.num_coflows = 526;
  tcfg.seed = 7;
  const auto trace = trace::synth_fb_trace(tcfg);
  const auto e_inc = run_engine(trace, /*on_stream=*/true);
  const auto e_full = run_engine(trace, /*on_stream=*/false);
  bool engine_identical =
      e_inc.result.coflows.size() == e_full.result.coflows.size();
  for (std::size_t i = 0; engine_identical && i < e_inc.result.coflows.size();
       ++i) {
    engine_identical =
        e_inc.result.coflows[i].finish == e_full.result.coflows[i].finish &&
        e_inc.result.coflows[i].flow_fcts_seconds ==
            e_full.result.coflows[i].flow_fcts_seconds;
  }
  identical = identical && engine_identical;
  const double end_to_end_ratio = e_full.wall_ms / e_inc.wall_ms;

  std::printf("%-26s %14s %14s\n", "engine (FB-scale)", "stream",
              "no stream");
  std::printf("%-26s %14.1f %14.1f\n", "wall ms", e_inc.wall_ms,
              e_full.wall_ms);
  std::printf("%-26s %14.0f %14.0f\n", "epochs/sec", e_inc.epochs_per_sec,
              e_full.epochs_per_sec);
  std::printf("%-26s %14.2f %14.2f\n", "order us/round",
              e_inc.order_us_per_round, e_full.order_us_per_round);
  std::printf("end-to-end ratio: %.2fx   results identical: %s\n\n",
              end_to_end_ratio, engine_identical ? "yes" : "NO");

  std::vector<OrderIndexMeasurement> primitives;
  std::printf("%-26s %14s %14s\n", "OrderIndex (entries/dirty)",
              "re-key ns", "materialize ns");
  for (const int entries : {50, 500, 5000}) {
    for (const int dirty : {1, entries / 10}) {
      primitives.push_back(run_order_index(entries, dirty));
      const auto& m = primitives.back();
      std::printf("%-26s %14.1f %14.1f\n",
                  (std::to_string(entries) + " / " + std::to_string(dirty))
                      .c_str(),
                  m.rekey_ns, m.materialize_ns);
    }
  }
  std::string primitives_json;
  for (const auto& m : primitives) {
    char row[160];
    std::snprintf(row, sizeof row,
                  "%s\n    {\"entries\": %d, \"dirty\": %d, "
                  "\"rekey_ns\": %.1f, \"materialize_ns\": %.1f}",
                  primitives_json.empty() ? "" : ",", m.entries, m.dirty,
                  m.rekey_ns, m.materialize_ns);
    primitives_json += row;
  }

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"sched_order\",\n"
      "  \"coflows\": %d,\n"
      "  \"rounds\": %d,\n"
      "  \"identical\": %s,\n"
      "  \"snapshot\": {\n"
      "    \"incremental\": {\"order_ns_per_round\": %.1f, "
      "\"crossing_ns_per_round\": %.1f, \"crossing_ns_per_entry\": %.1f, "
      "\"admit_ns_per_round\": %.1f, "
      "\"conserve_ns_per_round\": %.1f, "
      "\"conserve_ns_per_entry\": %.1f, \"conserve_ns_per_alloc\": %.1f, "
      "\"delta_rounds\": %lld, \"replayed_ranks\": %lld, "
      "\"backfill_rounds\": %lld, \"backfill_candidates\": %lld, "
      "\"backfill_missed\": %lld, \"backfill_flows\": %lld, "
      "\"backfill_allocs\": %lld},\n"
      "    \"full\": {\"order_ns_per_round\": %.1f, "
      "\"admit_ns_per_round\": %.1f, \"conserve_ns_per_round\": %.1f},\n"
      "    \"reference\": {\"order_ns_per_round\": %.1f, "
      "\"admit_ns_per_round\": %.1f, \"conserve_ns_per_round\": %.1f},\n"
      "    \"order_ratio\": %.2f,\n"
      "    \"conserve_ratio\": %.2f\n"
      "  },\n"
      "  \"engine\": {\n"
      "    \"coflows\": 526,\n"
      "    \"incremental\": {\"wall_ms\": %.3f, \"epochs\": %d, "
      "\"epochs_per_sec\": %.1f, \"order_us_per_round\": %.3f, "
      "\"delta_rounds\": %lld, \"replayed_ranks\": %lld},\n"
      "    \"full\": {\"wall_ms\": %.3f, \"epochs\": %d, "
      "\"epochs_per_sec\": %.1f, \"order_us_per_round\": %.3f},\n"
      "    \"end_to_end_ratio\": %.2f\n"
      "  },\n"
      "  \"order_index\": [%s\n  ]\n"
      "}\n",
      coflows, rounds, identical ? "true" : "false", inc.order_ns_per_round,
      inc.crossing_ns_per_round, inc.crossing_ns_per_entry,
      inc.admit_ns_per_round, inc.conserve_ns_per_round,
      inc.conserve_ns_per_entry, inc.conserve_ns_per_alloc,
      static_cast<long long>(inc.delta_rounds),
      static_cast<long long>(inc.replayed_ranks),
      static_cast<long long>(inc.backfill_rounds),
      static_cast<long long>(inc.backfill_candidates),
      static_cast<long long>(inc.backfill_missed),
      static_cast<long long>(inc.backfill_flows),
      static_cast<long long>(inc.backfill_allocs), full.order_ns_per_round,
      full.admit_ns_per_round, full.conserve_ns_per_round,
      ref.order_ns_per_round, ref.admit_ns_per_round,
      ref.conserve_ns_per_round, order_ratio,
      conserve_ratio, e_inc.wall_ms, e_inc.epochs,
      e_inc.epochs_per_sec, e_inc.order_us_per_round,
      static_cast<long long>(e_inc.delta_rounds),
      static_cast<long long>(e_inc.replayed_ranks), e_full.wall_ms,
      e_full.epochs, e_full.epochs_per_sec, e_full.order_us_per_round,
      end_to_end_ratio, primitives_json.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return identical ? 0 : 2;
}

}  // namespace
}  // namespace saath

int main(int argc, char** argv) { return saath::run(argc, argv); }
