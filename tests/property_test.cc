// Property suites: the DESIGN.md §6 invariants, swept across random traces
// (seeds) and every scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "reference/engine.h"
#include "reference/reference.h"
#include "sched/factory.h"
#include "sched/saath.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/synth.h"

namespace saath {
namespace {

struct PropertyParam {
  std::uint64_t seed;
  const char* scheduler;
};

void PrintTo(const PropertyParam& p, std::ostream* os) {
  *os << p.scheduler << "/seed" << p.seed;
}

class SchedulerProperty : public ::testing::TestWithParam<PropertyParam> {
 protected:
  [[nodiscard]] trace::Trace make() const {
    return trace::synth_small_trace(8, 40, GetParam().seed);
  }
  [[nodiscard]] SimConfig config() const {
    SimConfig cfg;
    cfg.port_bandwidth = 1e6;
    cfg.delta = msec(20);
    return cfg;
  }
};

// Invariants 1 + 2: every CoFlow completes, all bytes delivered, and (the
// engine checks every round) no port is ever overdrawn.
TEST_P(SchedulerProperty, CompletesAndConservesBytes) {
  const auto t = make();
  auto sched = make_scheduler(GetParam().scheduler);
  const auto result = simulate(t, *sched, config());
  ASSERT_EQ(result.coflows.size(), t.coflows.size());
  Bytes total = 0;
  for (const auto& c : result.coflows) {
    total += c.total_bytes;
    EXPECT_GT(c.cct_seconds(), 0.0);
    EXPECT_GE(c.arrival, 0);
    EXPECT_GE(c.finish, c.arrival);
  }
  EXPECT_EQ(total, t.total_bytes());
}

// Invariant 6: same trace + same config => identical outcome.
TEST_P(SchedulerProperty, Deterministic) {
  const auto t = make();
  auto s1 = make_scheduler(GetParam().scheduler);
  auto s2 = make_scheduler(GetParam().scheduler);
  const auto r1 = simulate(t, *s1, config());
  const auto r2 = simulate(t, *s2, config());
  ASSERT_EQ(r1.coflows.size(), r2.coflows.size());
  for (std::size_t i = 0; i < r1.coflows.size(); ++i) {
    EXPECT_EQ(r1.coflows[i].finish, r2.coflows[i].finish);
  }
}

// CCT can never beat the physical lower bound: the CoFlow's bottleneck
// time at full port bandwidth.
TEST_P(SchedulerProperty, CctAtLeastBottleneckBound) {
  const auto t = make();
  auto sched = make_scheduler(GetParam().scheduler);
  const auto cfg = config();
  const auto result = simulate(t, *sched, cfg);
  for (std::size_t i = 0; i < t.coflows.size(); ++i) {
    CoflowState state(t.coflows[i], FlowId{0});
    const double bound =
        state.bottleneck_seconds(cfg.port_bandwidth, t.coflows[i].arrival);
    const auto* rec = result.find(t.coflows[i].id);
    ASSERT_NE(rec, nullptr);
    EXPECT_GE(rec->cct_seconds(), bound - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerProperty,
    ::testing::Values(
        PropertyParam{1, "aalo"}, PropertyParam{2, "aalo"},
        PropertyParam{3, "aalo"}, PropertyParam{1, "saath"},
        PropertyParam{2, "saath"}, PropertyParam{3, "saath"},
        PropertyParam{4, "saath"}, PropertyParam{1, "saath-an-fifo"},
        PropertyParam{2, "saath-an-fifo"}, PropertyParam{1, "saath-an-pf-fifo"},
        PropertyParam{2, "saath-an-pf-fifo"}, PropertyParam{1, "scf"},
        PropertyParam{2, "scf"}, PropertyParam{1, "srtf"},
        PropertyParam{2, "srtf"}, PropertyParam{1, "lwtf"},
        PropertyParam{2, "lwtf"}, PropertyParam{1, "sebf"},
        PropertyParam{2, "sebf"}, PropertyParam{1, "uc-tcp"},
        PropertyParam{2, "uc-tcp"}),
    [](const ::testing::TestParamInfo<PropertyParam>& pinfo) {
      std::string name = pinfo.param.scheduler;
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_seed" + std::to_string(pinfo.param.seed);
    });

// Invariant 3: in Saath's primary pass (work conservation off), every
// scheduled CoFlow has all unfinished flows at one equal positive rate.
class SaathInvariant : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SaathInvariant, AllOrNoneEqualRatesEveryEpoch) {
  const auto t = trace::synth_small_trace(8, 30, GetParam());
  SaathConfig cfg;
  cfg.work_conservation = false;

  // Wrap Saath to observe rates immediately after every schedule() call.
  class Observer final : public Scheduler {
   public:
    explicit Observer(SaathConfig cfg) : inner_(cfg) {}
    std::string name() const override { return inner_.name(); }
    void schedule(SimTime now, std::span<CoflowState* const> active,
                  Fabric& fabric, RateAssignment& rates) override {
      inner_.schedule(now, active, fabric, rates);
      for (const CoflowState* c : active) {
        std::set<long> rate_set;
        bool any_positive = false;
        for (const auto& f : c->flows()) {
          if (f.finished()) continue;
          if (f.rate() > 0) any_positive = true;
          rate_set.insert(std::lround(f.rate() * 1e6));
        }
        if (any_positive) {
          EXPECT_EQ(rate_set.size(), 1u)
              << "coflow " << c->id().value << " has unequal rates";
        }
      }
    }
    void on_coflow_arrival(CoflowState& c, SimTime now) override {
      inner_.on_coflow_arrival(c, now);
    }
    void on_flow_complete(CoflowState& c, FlowState& f, SimTime now) override {
      inner_.on_flow_complete(c, f, now);
    }
    void on_coflow_complete(CoflowState& c, SimTime now) override {
      inner_.on_coflow_complete(c, now);
    }
    void on_coflow_quarantined(CoflowState& c, SimTime now) override {
      inner_.on_coflow_quarantined(c, now);
    }
    SaathScheduler inner_;
  };

  Observer observer(cfg);
  SimConfig sim;
  sim.port_bandwidth = 1e6;
  sim.delta = msec(20);
  const auto result = simulate(t, observer, sim);
  EXPECT_EQ(result.coflows.size(), t.coflows.size());
}

// Invariant 5: finite deadlines guarantee completion even under adversarial
// contention (here: heavy load via compressed arrivals).
TEST_P(SaathInvariant, NoStarvationUnderLoad) {
  auto t = trace::synth_small_trace(6, 40, GetParam());
  t = t.scaled_arrivals(10.0);  // 10x faster arrivals -> heavy contention
  SaathScheduler sched;         // d = 2
  SimConfig sim;
  sim.port_bandwidth = 1e6;
  sim.delta = msec(20);
  const auto result = simulate(t, sched, sim);
  EXPECT_EQ(result.coflows.size(), t.coflows.size());
}

// Aalo invariant 4: queue index never decreases across a run, even when
// node failures restart flows and shrink the bytes a CoFlow has sent.
TEST_P(SaathInvariant, AaloQueueMonotonicity) {
  const auto t = trace::synth_small_trace(8, 30, GetParam());
  const std::vector<DynamicsEvent> failures = {
      {seconds(30), DynamicsEvent::Kind::kNodeFailure, 0, 1.0},
      {seconds(90), DynamicsEvent::Kind::kNodeFailure, 3, 1.0},
      {seconds(200), DynamicsEvent::Kind::kNodeFailure, 5, 1.0},
  };

  class MonotonicityObserver final : public Scheduler {
   public:
    std::string name() const override { return inner_.name(); }
    void schedule(SimTime now, std::span<CoflowState* const> active,
                  Fabric& fabric, RateAssignment& rates) override {
      inner_.schedule(now, active, fabric, rates);
      for (const CoflowState* c : active) {
        auto [it, inserted] = last_queue_.try_emplace(c->id(), c->queue_index);
        if (!inserted) {
          EXPECT_GE(c->queue_index, it->second);
          it->second = c->queue_index;
        }
      }
    }
    void on_coflow_arrival(CoflowState& c, SimTime now) override {
      inner_.on_coflow_arrival(c, now);
    }
    void on_flow_complete(CoflowState& c, FlowState& f, SimTime now) override {
      inner_.on_flow_complete(c, f, now);
    }
    void on_coflow_complete(CoflowState& c, SimTime now) override {
      inner_.on_coflow_complete(c, now);
    }
    void on_coflow_quarantined(CoflowState& c, SimTime now) override {
      inner_.on_coflow_quarantined(c, now);
    }
    SaathScheduler inner_{aalo_config()};
    std::map<CoflowId, int> last_queue_;
  };

  MonotonicityObserver observer;
  SimConfig sim;
  sim.port_bandwidth = 1e5;  // slow ports -> multiple queue transitions
  sim.delta = msec(20);
  const auto result =
      simulate(testing::stream_of(t, failures), observer, sim);
  EXPECT_EQ(result.coflows.size(), t.coflows.size());
}

// Invariant 7 (Fig 7 lines 14, 18–23): after every round with work
// conservation on, no unfinished zero-rate flow of a data-available CoFlow
// has budget left at both of its ports. Read off the fabric the round left
// behind, so it checks the backfill's result without trusting the
// reference's dense rescan.
class ConservationObserver final : public Scheduler {
 public:
  std::string name() const override { return inner_.name(); }
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override {
    inner_.schedule(now, active, fabric, rates);
    verify(active, fabric);
  }
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates,
                const SchedulerDelta& delta) override {
    inner_.schedule(now, active, fabric, rates, delta);
    verify(active, fabric);
  }
  SimTime schedule_valid_until(
      SimTime now, std::span<CoflowState* const> active) const override {
    return inner_.schedule_valid_until(now, active);
  }
  void on_coflow_arrival(CoflowState& c, SimTime now) override {
    inner_.on_coflow_arrival(c, now);
  }
  void on_flow_complete(CoflowState& c, FlowState& f, SimTime now) override {
    inner_.on_flow_complete(c, f, now);
  }
  void on_coflow_complete(CoflowState& c, SimTime now) override {
    inner_.on_coflow_complete(c, now);
  }
  void on_coflow_quarantined(CoflowState& c, SimTime now) override {
    inner_.on_coflow_quarantined(c, now);
  }

  void verify(std::span<CoflowState* const> active, const Fabric& fabric) {
    ++rounds_checked;
    for (const CoflowState* c : active) {
      if (!c->data_available) continue;
      for (const auto& f : c->flows()) {
        if (f.finished() || f.rate() > 0) continue;
        ASSERT_FALSE(fabric.send_remaining(f.src()) > Fabric::kRateEpsilon &&
                     fabric.recv_remaining(f.dst()) > Fabric::kRateEpsilon)
            << "coflow " << c->id().value << " leaves flow " << f.src()
            << "->" << f.dst() << " idle with budget at both ports";
      }
    }
  }

  int rounds_checked = 0;
  SaathScheduler inner_;
};

TEST_P(SaathInvariant, WorkConservedEveryRound) {
  const auto t = trace::synth_small_trace(8, 30, GetParam());
  SimConfig sim;
  sim.port_bandwidth = 1e6;
  sim.delta = msec(20);
  // Plain arrivals, then 8x compressed ones: most CoFlows missed, so the
  // backfill carries most of each round's allocation.
  for (const auto& trace : {t, t.scaled_arrivals(8.0)}) {
    ConservationObserver obs;
    const auto result = simulate(trace, obs, sim);
    EXPECT_EQ(result.coflows.size(), trace.coflows.size());
    EXPECT_GT(obs.rounds_checked, 2);
    EXPECT_GT(obs.inner_.phase_stats().backfill_allocs, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SaathInvariant,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// Spatial-occupancy refactor invariants: the incremental SpatialIndex must be
// indistinguishable — in contention values and in the schedules it produces —
// from the batch k_c of the reference Saath (tests/reference/).

/// Wraps a SaathScheduler; after every schedule() asserts the incremental
/// index agrees with the batch count over the engine's live active set.
class IndexOracleObserver final : public Scheduler {
 public:
  explicit IndexOracleObserver(SaathConfig cfg) : inner_(cfg) {}
  std::string name() const override { return inner_.name(); }
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override {
    inner_.schedule(now, active, fabric, rates);
    const auto& index = inner_.spatial_index();
    ASSERT_EQ(index.size(), active.size());
    std::vector<int> queue_of(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
      queue_of[i] = active[i]->queue_index;
    }
    const auto oracle =
        reference::batch_contention(active, fabric.num_ports(), queue_of);
    for (std::size_t i = 0; i < active.size(); ++i) {
      ASSERT_TRUE(inner_.announced(*active[i]));
      const Slot slot = active[i]->slot();
      ASSERT_EQ(index.contention(slot), oracle[i])
          << "coflow " << active[i]->id().value << " at t=" << now;
      ASSERT_EQ(index.group_of(slot), active[i]->queue_index);
    }
  }
  SimTime schedule_valid_until(
      SimTime now, std::span<CoflowState* const> active) const override {
    return inner_.schedule_valid_until(now, active);
  }
  void on_coflow_arrival(CoflowState& c, SimTime now) override {
    inner_.on_coflow_arrival(c, now);
  }
  void on_flow_complete(CoflowState& c, FlowState& f, SimTime now) override {
    inner_.on_flow_complete(c, f, now);
  }
  void on_coflow_complete(CoflowState& c, SimTime now) override {
    inner_.on_coflow_complete(c, now);
  }
  void on_coflow_quarantined(CoflowState& c, SimTime now) override {
    inner_.on_coflow_quarantined(c, now);
  }
  SaathScheduler inner_;
};

class SpatialRefactor : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  [[nodiscard]] trace::Trace make() const {
    return trace::synth_small_trace(10, 60, GetParam());
  }
  [[nodiscard]] SimConfig config() const {
    SimConfig cfg;
    cfg.port_bandwidth = 1e6;
    cfg.delta = msec(20);
    return cfg;
  }
};

// The incremental index equals the oracle after every scheduling event of a
// full engine run (arrivals, completions, queue moves all exercised).
TEST_P(SpatialRefactor, IndexMatchesOracleEveryRound) {
  const auto t = make();
  IndexOracleObserver observer{SaathConfig{}};
  const auto result = simulate(t, observer, config());
  EXPECT_EQ(result.coflows.size(), t.coflows.size());
}

/// Records one digest per schedule() round: every flow's id and µs-rounded
/// rate. Two schedulers produce byte-identical schedules iff the digest
/// streams match. With `forward_delta` the engine's delta reaches the inner
/// scheduler (production's delta rounds); without it no round has a
/// stream, so production takes every CoFlow as a candidate.
class RateDigestObserver final : public Scheduler {
 public:
  RateDigestObserver(std::unique_ptr<Scheduler> inner, bool forward_delta,
                     std::vector<std::size_t>* out)
      : inner_(std::move(inner)), forward_delta_(forward_delta), out_(out) {}
  std::string name() const override { return inner_->name(); }
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override {
    inner_->schedule(now, active, fabric, rates);
    record(now, active);
  }
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates,
                const SchedulerDelta& delta) override {
    if (!forward_delta_) {
      schedule(now, active, fabric, rates);
      return;
    }
    inner_->schedule(now, active, fabric, rates, delta);
    record(now, active);
  }
  void on_coflow_arrival(CoflowState& c, SimTime now) override {
    inner_->on_coflow_arrival(c, now);
  }
  void on_flow_complete(CoflowState& c, FlowState& f, SimTime now) override {
    inner_->on_flow_complete(c, f, now);
  }
  void on_coflow_complete(CoflowState& c, SimTime now) override {
    inner_->on_coflow_complete(c, now);
  }
  void on_coflow_quarantined(CoflowState& c, SimTime now) override {
    inner_->on_coflow_quarantined(c, now);
  }
  // Deliberately no schedule_valid_until forward: digests must cover every
  // epoch, so this observer always requests recomputation.

 private:
  void record(SimTime now, std::span<CoflowState* const> active) {
    std::size_t digest = std::hash<SimTime>{}(now);
    const auto mix = [&digest](std::size_t v) {
      digest ^= v + 0x9e3779b97f4a7c15ull + (digest << 6) + (digest >> 2);
    };
    for (const CoflowState* c : active) {
      mix(std::hash<std::int64_t>{}(c->id().value));
      mix(static_cast<std::size_t>(c->queue_index));
      for (const auto& f : c->flows()) {
        mix(std::hash<std::int64_t>{}(f.id().value));
        mix(std::hash<long long>{}(std::llround(f.rate() * 1e6)));
      }
    }
    out_->push_back(digest);
  }

  std::unique_ptr<Scheduler> inner_;
  bool forward_delta_;
  std::vector<std::size_t>* out_;
};

// Saath fed by the incremental index produces the *identical* rate
// assignment, every epoch, as the reference Saath rebuilding k_c from the
// batch count — on the engine's stream and with no stream alike.
TEST_P(SpatialRefactor, IncrementalAndRebuildSchedulesIdentical) {
  const auto t = make();
  // The observer never forwards schedule_valid_until, so both runs schedule
  // every epoch and their rounds align 1:1.
  const SimConfig cfg = config();

  std::vector<std::size_t> rebuild_digests;
  RateDigestObserver s_reb(std::make_unique<reference::ReferenceSaath>(),
                           false, &rebuild_digests);
  const auto r_reb = simulate(t, s_reb, cfg);

  for (const bool delta_route : {true, false}) {
    std::vector<std::size_t> incremental_digests;
    RateDigestObserver s_inc(std::make_unique<SaathScheduler>(), delta_route,
                             &incremental_digests);
    const auto r_inc = simulate(t, s_inc, cfg);
    const char* route = delta_route ? "stream" : "no stream";
    ASSERT_EQ(incremental_digests.size(), rebuild_digests.size()) << route;
    for (std::size_t i = 0; i < incremental_digests.size(); ++i) {
      ASSERT_EQ(incremental_digests[i], rebuild_digests[i])
          << route << " round " << i;
    }
    ASSERT_EQ(r_inc.coflows.size(), r_reb.coflows.size()) << route;
    for (std::size_t i = 0; i < r_inc.coflows.size(); ++i) {
      EXPECT_EQ(r_inc.coflows[i].finish, r_reb.coflows[i].finish) << route;
      EXPECT_EQ(r_inc.coflows[i].flow_fcts_seconds,
                r_reb.coflows[i].flow_fcts_seconds)
          << route;
    }
  }
}

// Skipping quiescent epochs must not change any completion time — the
// skipped recompute would have reproduced the standing rates — while
// actually skipping rounds on these workloads: the production engine
// matches itself scheduling every epoch, and the reference engine.
TEST_P(SpatialRefactor, QuiescentEpochSkipPreservesResults) {
  const auto t = make();
  SaathScheduler s1;
  SaathScheduler s2;
  SaathScheduler s3;
  reference::EveryEpoch every_epoch(s2);
  Engine e1(t, s1, config());
  Engine e2(t, every_epoch, config());
  const auto r1 = e1.run();
  const auto r2 = e2.run();
  const auto r3 = reference::reference_simulate(t, s3, config());

  ASSERT_EQ(r1.coflows.size(), r2.coflows.size());
  ASSERT_EQ(r1.coflows.size(), r3.coflows.size());
  for (std::size_t i = 0; i < r1.coflows.size(); ++i) {
    EXPECT_EQ(r1.coflows[i].finish, r2.coflows[i].finish) << "coflow " << i;
    EXPECT_EQ(r1.coflows[i].flow_fcts_seconds, r2.coflows[i].flow_fcts_seconds);
    EXPECT_EQ(r1.coflows[i].finish, r3.coflows[i].finish) << "coflow " << i;
    EXPECT_EQ(r1.coflows[i].flow_fcts_seconds, r3.coflows[i].flow_fcts_seconds);
  }
  EXPECT_LE(e1.scheduling_rounds(), e2.scheduling_rounds());
}

// The skip must also be sound for the non-Saath schedulers (which request
// recomputation every epoch via the default schedule_valid_until).
TEST_P(SpatialRefactor, SkipIsNoOpForAlwaysRecomputeSchedulers) {
  const auto t = make();
  for (const char* name : {"aalo", "sebf", "uc-tcp"}) {
    auto s1 = make_scheduler(name);
    auto s2 = make_scheduler(name);
    const auto r1 = simulate(t, *s1, config());
    const auto r2 = reference::reference_simulate(t, *s2, config());
    ASSERT_EQ(r1.coflows.size(), r2.coflows.size());
    for (std::size_t i = 0; i < r1.coflows.size(); ++i) {
      EXPECT_EQ(r1.coflows[i].finish, r2.coflows[i].finish)
          << name << " coflow " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpatialRefactor,
                         ::testing::Values(5, 17, 29, 41, 53));

// ---------------------------------------------------------------------------
// Port-indexed work-conservation backfill: the residual-set-driven walk must
// be indistinguishable from the reference Saath's dense missed-list rescan
// across the loop × route matrix, under plain runs, heavy load and dynamics
// churn alike.

using testing::Loop;
using testing::loop_name;

struct BackfillParam {
  std::uint64_t seed;
  const char* scheduler;  // "saath" or "aalo" (shared admit/alloc guard)
  Loop loop;
  bool order;  // production on the engine's stream (else with none)
  /// On 40 ports, seed 7 has six CoFlows over 128 flows, the widest 399.
  int ports = 10;
  /// Shuffles each CoFlow's flow list, so CoFlows whose slot order is not
  /// flow order on one side or both take the other side's walk or the
  /// dense one (every synthetic CoFlow is a mesh, ordered on both sides).
  bool shuffled = false;
};

void PrintTo(const BackfillParam& p, std::ostream* os) {
  *os << p.scheduler << "/seed" << p.seed << "/" << loop_name(p.loop)
      << (p.order ? "/incorder" : "/fullorder") << "/ports" << p.ports
      << (p.shuffled ? "/shuffled" : "");
}

/// The backfill's three routes, by which sides of each CoFlow of `t` are
/// ordered (CoflowState::sender_walk_ordered): both, one, or neither.
struct WalkClasses {
  int both = 0;
  int one_side = 0;
  int neither = 0;
};

WalkClasses walk_classes(const trace::Trace& t) {
  WalkClasses k;
  for (const CoflowSpec& spec : t.coflows) {
    const CoflowState c(spec, FlowId{0});
    const int sides = static_cast<int>(c.sender_walk_ordered()) +
                      static_cast<int>(c.receiver_walk_ordered());
    ++(sides == 2 ? k.both : sides == 1 ? k.one_side : k.neither);
  }
  return k;
}

void expect_identical_results(const SimResult& a, const SimResult& b,
                              const char* label) {
  ASSERT_EQ(a.coflows.size(), b.coflows.size()) << label;
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    ASSERT_EQ(a.coflows[i].id, b.coflows[i].id) << label << " coflow " << i;
    ASSERT_EQ(a.coflows[i].finish, b.coflows[i].finish)
        << label << " coflow " << i;
    ASSERT_EQ(a.coflows[i].flow_fcts_seconds, b.coflows[i].flow_fcts_seconds)
        << label << " coflow " << i;
  }
}

class BackfillProperty : public ::testing::TestWithParam<BackfillParam> {
 protected:
  [[nodiscard]] trace::Trace make() const {
    auto t = trace::synth_small_trace(GetParam().ports, 60, GetParam().seed);
    if (GetParam().shuffled) {
      std::mt19937_64 rng(GetParam().seed);
      for (CoflowSpec& spec : t.coflows) {
        std::shuffle(spec.flows.begin(), spec.flows.end(), rng);
      }
    }
    return t;
  }
  [[nodiscard]] SimConfig config() const {
    SimConfig cfg;
    cfg.port_bandwidth = 1e6;
    cfg.delta = msec(20);
    return cfg;
  }
  [[nodiscard]] bool aalo() const {
    return std::string(GetParam().scheduler) == "aalo";
  }
  /// Runs `t` through production (`reference` false) on the route the
  /// parameter picks, or through the reference scheduler.
  [[nodiscard]] SimResult run(const trace::Trace& t, bool reference,
                              const std::vector<DynamicsEvent>& dynamics = {})
      const {
    std::unique_ptr<Scheduler> sched;
    if (reference) {
      sched = aalo() ? std::unique_ptr<Scheduler>(
                           std::make_unique<reference::ReferenceAalo>())
                     : std::make_unique<reference::ReferenceSaath>();
    } else {
      sched = aalo() ? std::unique_ptr<Scheduler>(
                           std::make_unique<SaathScheduler>(aalo_config()))
                     : std::make_unique<SaathScheduler>();
    }
    reference::FullRoute full_route(*sched);
    Scheduler& routed =
        reference || GetParam().order ? *sched
                                      : static_cast<Scheduler&>(full_route);
    return testing::run_on(GetParam().loop, reference,
                           testing::stream_of(t, dynamics), routed, config());
  }
};

TEST_P(BackfillProperty, IndexedBackfillMatchesDenseOracle) {
  const auto t = make();
  if (GetParam().shuffled) {
    // The shuffled input must reach every route of the backfill.
    const WalkClasses k = walk_classes(t);
    EXPECT_GT(k.both, 0);
    EXPECT_GT(k.one_side, 0);
    EXPECT_GT(k.neither, 0);
  }
  expect_identical_results(run(t, false), run(t, true), GetParam().scheduler);
}

// Heavy churn: compressed arrivals keep most CoFlows missed, so the
// backfill carries most of the allocation every round.
TEST_P(BackfillProperty, IndexedBackfillMatchesDenseOracleUnderLoad) {
  auto t = make();
  t = t.scaled_arrivals(8.0);
  expect_identical_results(run(t, false), run(t, true), GetParam().scheduler);
}

// Dynamics: stragglers move Fabric::capacity_version (fencing the admission
// replay) and failures reshuffle the missed set mid-stream.
TEST_P(BackfillProperty, IndexedBackfillMatchesDenseOracleUnderDynamics) {
  const auto t = make();
  const std::vector<DynamicsEvent> dynamics = {
      {seconds(2), DynamicsEvent::Kind::kNodeFailure, 1, 1.0},
      {seconds(3), DynamicsEvent::Kind::kStragglerStart, 4, 0.3},
      {seconds(6), DynamicsEvent::Kind::kStragglerEnd, 4, 1.0},
      {seconds(7), DynamicsEvent::Kind::kNodeFailure, 2, 1.0},
  };
  expect_identical_results(run(t, false, dynamics), run(t, true, dynamics),
                           GetParam().scheduler);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BackfillProperty,
    ::testing::Values(
        BackfillParam{7, "saath", Loop::kProduction, true},
        BackfillParam{7, "saath", Loop::kProduction, false},
        BackfillParam{7, "saath", Loop::kEveryEpoch, true},
        BackfillParam{7, "saath", Loop::kEveryEpoch, false},
        BackfillParam{7, "saath", Loop::kReference, true},
        BackfillParam{7, "saath", Loop::kReference, false},
        BackfillParam{21, "saath", Loop::kProduction, true},
        BackfillParam{35, "saath", Loop::kEveryEpoch, true},
        BackfillParam{7, "aalo", Loop::kProduction, true},
        BackfillParam{7, "aalo", Loop::kEveryEpoch, true},
        BackfillParam{7, "aalo", Loop::kReference, true},
        BackfillParam{21, "aalo", Loop::kReference, true},
        BackfillParam{7, "saath", Loop::kProduction, true, 40},
        BackfillParam{7, "saath", Loop::kEveryEpoch, true, 40},
        BackfillParam{7, "saath", Loop::kProduction, true, 10, true},
        BackfillParam{7, "saath", Loop::kProduction, false, 10, true},
        BackfillParam{7, "saath", Loop::kEveryEpoch, true, 10, true},
        BackfillParam{7, "saath", Loop::kEveryEpoch, false, 10, true},
        BackfillParam{7, "saath", Loop::kReference, true, 10, true},
        BackfillParam{7, "saath", Loop::kReference, false, 10, true},
        BackfillParam{21, "saath", Loop::kProduction, true, 10, true},
        BackfillParam{35, "saath", Loop::kEveryEpoch, true, 10, true}),
    [](const ::testing::TestParamInfo<BackfillParam>& pinfo) {
      std::string name = pinfo.param.scheduler;
      return name + "_seed" + std::to_string(pinfo.param.seed) + "_" +
             loop_name(pinfo.param.loop) +
             (pinfo.param.order ? "_incorder" : "_fullorder") +
             (pinfo.param.ports == 10
                  ? ""
                  : "_ports" + std::to_string(pinfo.param.ports)) +
             (pinfo.param.shuffled ? "_shuffled" : "");
    });

/// Forwards the engine's precise deltas (so the indexed backfill actually
/// runs) and, after every round, cross-checks the fabric's residual live
/// sets against a from-scratch scan of the remaining budgets.
class ResidualSetObserver final : public Scheduler {
 public:
  std::string name() const override { return inner_.name(); }
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override {
    inner_.schedule(now, active, fabric, rates);
    verify(fabric);
  }
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates,
                const SchedulerDelta& delta) override {
    inner_.schedule(now, active, fabric, rates, delta);
    verify(fabric);
  }
  SimTime schedule_valid_until(
      SimTime now, std::span<CoflowState* const> active) const override {
    return inner_.schedule_valid_until(now, active);
  }
  void on_coflow_arrival(CoflowState& c, SimTime now) override {
    inner_.on_coflow_arrival(c, now);
  }
  void on_flow_complete(CoflowState& c, FlowState& f, SimTime now) override {
    inner_.on_flow_complete(c, f, now);
  }
  void on_coflow_complete(CoflowState& c, SimTime now) override {
    inner_.on_coflow_complete(c, now);
  }
  void on_coflow_quarantined(CoflowState& c, SimTime now) override {
    inner_.on_coflow_quarantined(c, now);
  }

  void verify(const Fabric& fabric) {
    ++rounds_checked;
    std::size_t live_send = 0;
    std::size_t live_recv = 0;
    for (PortIndex p = 0; p < fabric.num_ports(); ++p) {
      const bool s = fabric.send_remaining(p) > Fabric::kRateEpsilon;
      const bool r = fabric.recv_remaining(p) > Fabric::kRateEpsilon;
      ASSERT_EQ(fabric.send_is_live(p), s) << "send port " << p;
      ASSERT_EQ(fabric.recv_is_live(p), r) << "recv port " << p;
      live_send += s ? 1 : 0;
      live_recv += r ? 1 : 0;
    }
    ASSERT_EQ(fabric.send_live().size(), live_send);
    ASSERT_EQ(fabric.recv_live().size(), live_recv);
    for (const PortIndex p : fabric.send_live()) {
      ASSERT_TRUE(fabric.send_is_live(p));
    }
    for (const PortIndex p : fabric.recv_live()) {
      ASSERT_TRUE(fabric.recv_is_live(p));
    }
  }

  int rounds_checked = 0;
  SaathScheduler inner_;
};

// The port-residual view must equal a from-scratch budget scan after every
// scheduling round of a real engine run (admissions and the backfill both
// consuming behind it).
TEST(ResidualSet, MatchesFromScratchScanEveryRound) {
  const auto t = trace::synth_small_trace(10, 60, 13);
  ResidualSetObserver obs;
  SimConfig cfg;
  cfg.port_bandwidth = 1e6;
  cfg.delta = msec(20);
  const auto result = simulate(t, obs, cfg);
  EXPECT_EQ(result.coflows.size(), t.coflows.size());
  EXPECT_GT(obs.rounds_checked, 2);
}

// On a sparse workload (slow ports, long quiet busy periods) the skip must
// actually fire — an order of magnitude fewer compute_schedule rounds than
// scheduling every epoch, with the completion schedule untouched. Guards
// the valid-until plumbing against silently degrading to
// recompute-every-epoch.
TEST(QuiescentSkip, ReducesRoundsOnSparseWorkload) {
  const auto t = trace::synth_small_trace(8, 20, 3);
  SimConfig cfg;
  cfg.port_bandwidth = 1e5;
  cfg.delta = msec(50);

  SaathScheduler s1;
  SaathScheduler s2;
  reference::EveryEpoch every_epoch(s2);
  Engine e1(t, s1, cfg);
  Engine e2(t, every_epoch, cfg);
  const auto r1 = e1.run();
  const auto r2 = e2.run();

  ASSERT_EQ(r1.coflows.size(), r2.coflows.size());
  for (std::size_t i = 0; i < r1.coflows.size(); ++i) {
    EXPECT_EQ(r1.coflows[i].finish, r2.coflows[i].finish);
  }
  EXPECT_LT(e1.scheduling_rounds() * 10, e2.scheduling_rounds());
}

}  // namespace
}  // namespace saath
