// Table 2 — coordinator scheduling overhead. The paper reports 0.57 ms
// average / 2.85 ms P90 for Saath's schedule computation on 150 ports,
// with LCoF ordering and the all-or-none pass each a sub-fraction and the
// rest spent assigning work-conservation rates. This google-benchmark
// binary measures our coordinator on synthetic busy snapshots of varying
// CoFlow population, and prints the same phase breakdown.
//
// The order phase is reported twice: BM_SaathSchedule reads LCoF keys from
// the incremental spatial::SpatialIndex (production Saath), while
// BM_SaathScheduleRebuild runs the reference Saath of tests/reference/,
// which recounts k_c in batch every round (the pre-index behavior whenever
// any event dirtied the cache). Compare the `order_us` counters at the same
// population — the incremental path is the Table 2 claim that coordinator
// cost stays flat as concurrency grows.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <vector>

#include "coflow/coflow.h"
#include "fabric/fabric.h"
#include "reference/engine.h"
#include "reference/reference.h"
#include "sched/contention.h"
#include "sched/saath.h"
#include "sim/engine.h"
#include "spatial/contention.h"
#include "trace/synth.h"

namespace saath {
namespace {

/// A busy coordinator snapshot: `n` CoFlows mid-flight on 150 ports.
struct Snapshot {
  std::vector<std::unique_ptr<CoflowState>> states;
  std::vector<CoflowState*> active;

  explicit Snapshot(int n, std::uint64_t seed) {
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
    // Give CoFlows uneven progress so queue assignment has real work to do:
    // rate from t=0, folded to a stop at 1-3 s (lazy progress accrues in
    // between).
    int i = 0;
    for (auto& c : states) {
      for (auto& f : c->flows()) f.set_rate(1e6 * (1 + i % 7), 0);
      for (auto& f : c->flows()) f.set_rate(0, seconds(1 + i % 3));
      ++i;
    }
  }
};

void report_phases(benchmark::State& state, const SaathPhaseStats& st) {
  state.counters["order_us"] =
      static_cast<double>(st.order_ns) / 1e3 / static_cast<double>(st.rounds);
  state.counters["admit_us"] =
      static_cast<double>(st.admit_ns) / 1e3 / static_cast<double>(st.rounds);
  state.counters["conserve_us"] = static_cast<double>(st.conserve_ns) / 1e3 /
                                  static_cast<double>(st.rounds);
}

template <typename Sched>
void run_saath_snapshot(benchmark::State& state) {
  Snapshot snap(static_cast<int>(state.range(0)), 7);
  Sched sched;
  for (CoflowState* c : snap.active) sched.on_coflow_arrival(*c, 0);
  Fabric fabric(150, gbps(1));
  SimTime now = seconds(3);  // past the snapshot's progress folds
  for (auto _ : state) {
    fabric.reset();
    sched.schedule(now, snap.active, fabric);
    now += msec(8);
  }
  report_phases(state, sched.phase_stats());
}

/// Order phase fed by the incremental SpatialIndex (production).
void BM_SaathSchedule(benchmark::State& state) {
  run_saath_snapshot<SaathScheduler>(state);
}
BENCHMARK(BM_SaathSchedule)->Arg(50)->Arg(200)->Arg(500)->Arg(1000);

/// Order phase recounting k_c in batch every round (the reference Saath) —
/// what the coordinator paid per dirtied epoch before the spatial index
/// existed.
void BM_SaathScheduleRebuild(benchmark::State& state) {
  run_saath_snapshot<reference::ReferenceSaath>(state);
}
BENCHMARK(BM_SaathScheduleRebuild)->Arg(50)->Arg(200)->Arg(500)->Arg(1000);

void BM_AaloSchedule(benchmark::State& state) {
  Snapshot snap(static_cast<int>(state.range(0)), 7);
  SaathScheduler sched(aalo_config());
  for (CoflowState* c : snap.active) sched.on_coflow_arrival(*c, 0);
  Fabric fabric(150, gbps(1));
  SimTime now = seconds(3);  // past the snapshot's progress folds
  for (auto _ : state) {
    fabric.reset();
    sched.schedule(now, snap.active, fabric);
    now += msec(8);
  }
}
BENCHMARK(BM_AaloSchedule)->Arg(50)->Arg(200)->Arg(500);

void BM_ContentionComputation(benchmark::State& state) {
  Snapshot snap(static_cast<int>(state.range(0)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_contention(snap.active, 150));
  }
}
BENCHMARK(BM_ContentionComputation)->Arg(50)->Arg(200)->Arg(500)->Arg(1000);

/// Per-event cost of the incremental index under churn, over the stream
/// lifecycle a streaming workload drives through Saath's hooks: one
/// snapshot CoFlow leaves, a fresh arrival of the same spec joins, each of
/// its flows completes, it leaves, and the original rejoins and moves
/// queue. Slots are handed out the way Saath does: each arrival takes a
/// free slot, and a slot released in one iteration (one round) is free
/// only from the next. arrival_ns and completion_ns time the arrival and
/// flow-completion hooks' index calls alone (one steady_clock read pair
/// each, whose own cost is included); the iteration time covers the whole
/// cycle plus building the fresh CoflowState.
void BM_SpatialIndexChurn(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  Snapshot snap(static_cast<int>(state.range(0)), 11);
  spatial::SpatialIndex index;
  const auto n = static_cast<Slot>(snap.active.size());
  std::vector<Slot> slot_of(snap.active.size());
  for (Slot s = 0; s < n; ++s) {
    slot_of[s] = s;
    index.add_coflow(s, *snap.active[s], snap.active[s]->queue_index);
  }
  // Each iteration takes two slots and releases two.
  std::vector<Slot> free_slots = {n, n + 1};
  std::vector<Slot> released;
  const auto take = [&free_slots] {
    const Slot s = free_slots.back();
    free_slots.pop_back();
    return s;
  };
  std::int64_t arrival_ns = 0;
  std::int64_t completion_ns = 0;
  std::int64_t arrivals = 0;
  std::int64_t completions = 0;
  const auto since = [](Clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0)
        .count();
  };
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t k = i % snap.active.size();
    CoflowState* c = snap.active[k];
    CoflowState fresh(c->spec(), FlowId{0});
    index.remove(slot_of[k]);
    released.push_back(slot_of[k]);
    const Slot fresh_slot = take();
    auto t0 = Clock::now();
    index.add_coflow(fresh_slot, fresh, c->queue_index);
    arrival_ns += since(t0);
    ++arrivals;
    for (FlowState& f : fresh.flows()) {
      fresh.on_flow_complete(f, seconds(1));
      t0 = Clock::now();
      index.on_flow_complete(fresh_slot, fresh, f);
      completion_ns += since(t0);
      ++completions;
    }
    index.remove(fresh_slot);
    released.push_back(fresh_slot);
    slot_of[k] = take();
    index.add_coflow(slot_of[k], *c, c->queue_index);
    index.set_group(slot_of[k], (c->queue_index + 1) % 10);
    index.set_group(slot_of[k], c->queue_index);
    index.clear_contention_changes();
    benchmark::DoNotOptimize(index.contention(slot_of[k]));
    free_slots.insert(free_slots.end(), released.begin(), released.end());
    released.clear();
    ++i;
  }
  state.counters["arrival_ns"] =
      static_cast<double>(arrival_ns) / static_cast<double>(arrivals);
  state.counters["completion_ns"] =
      static_cast<double>(completion_ns) / static_cast<double>(completions);
}
BENCHMARK(BM_SpatialIndexChurn)->Arg(50)->Arg(200)->Arg(500)->Arg(1000);

/// End-to-end coordinator cost over a full busy FB-scale engine run:
/// exercises the event-driven deltas (arrivals/completions) and the
/// quiescent-epoch skip rather than a frozen snapshot. incremental:0 runs
/// the reference Saath on the reference engine (tests/reference/): every
/// epoch recomputed from scratch.
void BM_SaathEngineRun(benchmark::State& state) {
  trace::SynthConfig cfg;
  cfg.num_ports = 150;
  cfg.num_coflows = 526;
  cfg.seed = 7;
  const auto trace = synth_fb_trace(cfg);
  const bool incremental = state.range(0) == 1;
  std::int64_t rounds = 0;
  std::int64_t order_ns = 0;
  for (auto _ : state) {
    SimConfig sim;
    sim.port_bandwidth = gbps(1);
    sim.delta = msec(8);
    const SaathPhaseStats* st = nullptr;
    SaathScheduler production;
    reference::ReferenceSaath ref;
    if (incremental) {
      Engine engine(trace, production, sim);
      benchmark::DoNotOptimize(engine.run());
      st = &production.phase_stats();
    } else {
      reference::ReferenceEngine engine(trace, ref, sim);
      benchmark::DoNotOptimize(engine.run());
      st = &ref.phase_stats();
    }
    rounds += st->rounds;
    order_ns += st->order_ns;
  }
  state.counters["order_us"] =
      static_cast<double>(order_ns) / 1e3 / static_cast<double>(rounds);
  state.counters["rounds"] = static_cast<double>(rounds) /
                             static_cast<double>(state.iterations());
}
BENCHMARK(BM_SaathEngineRun)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgName("incremental");

}  // namespace
}  // namespace saath

BENCHMARK_MAIN();
