#include "workload/scenario.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/expect.h"
#include "common/tokens.h"
#include "parallel/thread_pool.h"
#include "sched/factory.h"
#include "trace/synth.h"
#include "workload/combinators.h"
#include "workload/dag_source.h"
#include "workload/sources.h"

namespace saath::workload {

namespace {

struct Registered {
  std::string description;
  ScenarioFactory factory;
};

std::map<std::string, Registered>& registry() {
  static std::map<std::string, Registered> r;
  return r;
}

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

// ------------------------------------------------------------- built-ins

ScenarioSetup fb_replay(const ScenarioParams& params) {
  trace::SynthConfig cfg;
  cfg.num_ports = params.get_int32("ports", cfg.num_ports);
  cfg.num_coflows = params.get_int32("coflows", cfg.num_coflows);
  cfg.seed = static_cast<std::uint64_t>(params.get_int("seed", 101));
  ScenarioSetup setup;
  setup.source = std::make_shared<TraceSource>(trace::synth_fb_trace(cfg));
  return setup;
}

ScenarioSetup osp_replay(const ScenarioParams& params) {
  ScenarioSetup setup;
  setup.source = std::make_shared<TraceSource>(trace::synth_osp_trace(
      static_cast<std::uint64_t>(params.get_int("seed", 2))));
  return setup;
}

ScenarioSetup steady_churn(const ScenarioParams& params) {
  SynthStreamConfig cfg;
  cfg.name = "steady-churn";
  cfg.shape.num_ports = params.get_int32("ports", 60);
  cfg.seed = static_cast<std::uint64_t>(params.get_int("seed", 11));
  cfg.num_coflows = params.get_int("coflows", 1200);
  cfg.mean_gap = static_cast<SimTime>(
      params.get_int("mean_gap_us", msec(40)));
  cfg.p_burst = params.get_double("p_burst", 0.4);
  // Smaller transfers than the FB bands: churn, not bulk — the live set
  // stays bounded because completions keep pace with arrivals.
  cfg.bands.small_lo = 0.05 * kMB;
  cfg.bands.small_hi = 20.0 * kMB;
  cfg.bands.large_lo = 20.0 * kMB;
  cfg.bands.large_hi = 400.0 * kMB;
  ScenarioSetup setup;
  setup.source = std::make_shared<SynthSource>(cfg);
  return setup;
}

ScenarioSetup multi_tenant_merge(const ScenarioParams& params) {
  const std::int64_t coflows = params.get_int("coflows", 600);
  const auto seed = static_cast<std::uint64_t>(params.get_int("seed", 21));
  const int ports = params.get_int32("ports", 80);

  // Tenant A: a batch-analytics trace replayed at accelerated arrivals
  // with per-coflow jitter (the decorators replacing scaled_arrivals
  // copies).
  auto tenant_a = std::make_shared<JitterSource>(
      std::make_shared<ScaleArrivals>(
          std::make_shared<TraceSource>(trace::synth_small_trace(
              ports, static_cast<int>(std::max<std::int64_t>(1, coflows / 2)),
              seed)),
          params.get_double("scale", 2.0)),
      msec(params.get_int("jitter_ms", 50)), seed + 1);

  // Tenant B: a streaming service's steady churn on the same fabric.
  SynthStreamConfig b;
  b.name = "tenant-b";
  b.shape.num_ports = ports;
  b.seed = seed + 2;
  b.num_coflows = std::max<std::int64_t>(1, coflows - coflows / 2);
  b.mean_gap = msec(30);
  b.bands.small_hi = 40.0 * kMB;
  b.bands.large_lo = 40.0 * kMB;
  b.bands.large_hi = 800.0 * kMB;

  ScenarioSetup setup;
  setup.source = std::make_shared<MergeSource>(
      std::vector<std::shared_ptr<WorkloadSource>>{
          std::move(tenant_a), std::make_shared<SynthSource>(b)});
  return setup;
}

ScenarioSetup failure_storm(const ScenarioParams& params) {
  const int ports = params.get_int32("ports", 40);
  const int coflows = params.get_int32("coflows", 260);
  const auto seed = static_cast<std::uint64_t>(params.get_int("seed", 31));
  const auto failures = params.get_int("failures", 6);
  const SimTime period = msec(params.get_int("period_ms", 1500));

  std::vector<WorkloadEvent> script;
  for (std::int64_t i = 0; i < failures; ++i) {
    DynamicsEvent ev;
    ev.time = period * (i + 1);
    ev.kind = DynamicsEvent::Kind::kNodeFailure;
    ev.port = static_cast<PortIndex>((i * 7) % ports);
    script.push_back(WorkloadEvent::dynamics_at(ev));
    // Each failure's neighbor limps at 30% for one period before recovering.
    DynamicsEvent slow = ev;
    slow.kind = DynamicsEvent::Kind::kStragglerStart;
    slow.port = static_cast<PortIndex>((ev.port + 1) % ports);
    slow.capacity_factor = 0.3;
    script.push_back(WorkloadEvent::dynamics_at(slow));
    DynamicsEvent end = slow;
    end.kind = DynamicsEvent::Kind::kStragglerEnd;
    end.time = slow.time + period;
    end.capacity_factor = 1.0;
    script.push_back(WorkloadEvent::dynamics_at(end));
  }

  ScenarioSetup setup;
  setup.source = std::make_shared<MergeSource>(
      std::vector<std::shared_ptr<WorkloadSource>>{
          std::make_shared<TraceSource>(
              trace::synth_small_trace(ports, coflows, seed)),
          std::make_shared<ScriptSource>("storm", ports, std::move(script))});
  return setup;
}

ScenarioSetup pipeline_dag(const ScenarioParams& params) {
  const int ports = params.get_int32("ports", 24);
  const auto jobs = params.get_int("jobs", 4);
  const double mb = params.get_double("stage_mb", 60.0);

  auto dag = std::make_shared<DagSource>("pipeline-dag", ports);
  for (std::int64_t j = 0; j < jobs; ++j) {
    // Diamond per job: ingest -> {left, right} -> join, on a port
    // neighborhood that rotates per job so jobs contend but don't collide.
    const auto p = [&](std::int64_t k) {
      return static_cast<PortIndex>((j * 3 + k) % ports);
    };
    const auto bytes = [&](double scale) {
      return static_cast<Bytes>(scale * mb * kMB);
    };
    JobSpec job;
    job.id = JobId{j + 1};
    job.arrival = msec(400) * j;
    job.stages.push_back(
        {{{p(0), p(4), bytes(1.0)}, {p(1), p(5), bytes(1.0)}}, {}});
    job.stages.push_back({{{p(4), p(2), bytes(0.4)}}, {0}});
    job.stages.push_back({{{p(5), p(3), bytes(0.6)}}, {0}});
    job.stages.push_back(
        {{{p(2), p(6), bytes(0.2)}, {p(3), p(6), bytes(0.2)}}, {1, 2}});
    dag->add_job(std::move(job));
  }
  ScenarioSetup setup;
  setup.source = std::move(dag);
  return setup;
}

void ensure_builtins_locked() {
  static bool done = false;
  if (done) return;
  done = true;
  auto add = [](const char* name, const char* desc, ScenarioFactory f) {
    registry()[name] = Registered{desc, std::move(f)};
  };
  add("fb-replay",
      "FB-like trace (150 ports / 526 CoFlows) replayed through a "
      "TraceSource [ports, coflows, seed]",
      fb_replay);
  add("osp-replay",
      "OSP-like trace (100 ports / 1000 CoFlows, busier) [seed]", osp_replay);
  add("steady-churn",
      "unbounded-horizon SynthSource stream of small CoFlows at a steady "
      "arrival rate [ports, coflows, seed, mean_gap_us, p_burst]",
      steady_churn);
  add("multi-tenant-merge",
      "MergeSource mix: jittered+accelerated batch trace replay over a "
      "streaming tenant [ports, coflows, seed, scale, jitter_ms]",
      multi_tenant_merge);
  add("failure-storm",
      "trace replay merged with a scripted stream of node failures and "
      "stragglers [ports, coflows, seed, failures, period_ms]",
      failure_storm);
  add("pipeline-dag",
      "reactive DagSource: diamond jobs whose stages release as upstream "
      "CoFlows complete [ports, jobs, stage_mb]",
      pipeline_dag);
}

}  // namespace

std::int64_t ScenarioParams::get_int(const std::string& key,
                                     std::int64_t fallback) const {
  consumed_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  // Whole-value parse: "12abc" is an error, not 12 — a malformed override
  // must fail the run, never silently bend the workload.
  if (const auto v = parse_int(it->second)) return *v;
  throw std::invalid_argument("scenario parameter " + key + "='" +
                              it->second + "' is not an integer");
}

int ScenarioParams::get_int32(const std::string& key, int fallback) const {
  const std::int64_t v = get_int(key, fallback);
  if (v == static_cast<int>(v)) return static_cast<int>(v);
  throw std::invalid_argument("scenario parameter " + key + "='" +
                              values_.at(key) + "' is out of range");
}

double ScenarioParams::get_double(const std::string& key,
                                  double fallback) const {
  consumed_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (const auto v = parse_double(it->second)) return *v;
  throw std::invalid_argument("scenario parameter " + key + "='" +
                              it->second + "' is not a number");
}

std::string ScenarioParams::get_string(const std::string& key,
                                       std::string fallback) const {
  consumed_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? std::move(fallback) : it->second;
}

const std::vector<std::string>& ScenarioParams::universal_keys() {
  // CI matrices pass one override set to every scenario; these keys are
  // meaningful across all of them (or consumed by run_scenario itself),
  // so an individual scenario not reading one is not an error.
  static const std::vector<std::string> keys = {"seed", "ports", "coflows",
                                                "jobs"};
  return keys;
}

std::vector<std::string> ScenarioParams::unconsumed() const {
  std::vector<std::string> out;
  const auto& universal = universal_keys();
  for (const auto& [key, value] : values_) {
    if (consumed_.count(key) > 0) continue;
    if (std::find(universal.begin(), universal.end(), key) !=
        universal.end()) {
      continue;
    }
    out.push_back(key);
  }
  return out;
}

void apply_run_params(const ScenarioParams& params, SimConfig& cfg) {
  if (params.get_int("records", 1) == 0) cfg.record_results = false;
  cfg.max_stall_epochs = params.get_int32("stall_epochs", cfg.max_stall_epochs);
  cfg.max_requeue_attempts =
      params.get_int32("requeue", cfg.max_requeue_attempts);
  if (params.get_int("strict_input", 1) == 0) cfg.strict_input = false;
}

void reject_unread_params(const ScenarioParams& params,
                          std::string_view scenario) {
  const auto unknown = params.unconsumed();
  if (unknown.empty()) return;
  std::string listed;
  for (const auto& key : unknown) {
    if (!listed.empty()) listed += ", ";
    listed += key;
  }
  throw std::invalid_argument("scenario '" + std::string(scenario) +
                              "' does not understand parameter(s): " +
                              listed);
}

void register_scenario(std::string name, std::string description,
                       ScenarioFactory factory) {
  SAATH_EXPECTS(!name.empty());
  SAATH_EXPECTS(factory != nullptr);
  std::lock_guard lock(registry_mutex());
  ensure_builtins_locked();
  registry()[std::move(name)] =
      Registered{std::move(description), std::move(factory)};
}

std::vector<ScenarioInfo> known_scenarios() {
  std::lock_guard lock(registry_mutex());
  ensure_builtins_locked();
  std::vector<ScenarioInfo> out;
  out.reserve(registry().size());
  for (const auto& [name, reg] : registry()) {
    out.push_back({name, reg.description});
  }
  return out;
}

ScenarioSetup make_scenario(std::string_view name,
                            const ScenarioParams& params) {
  ScenarioFactory factory;
  {
    std::lock_guard lock(registry_mutex());
    ensure_builtins_locked();
    const auto it = registry().find(std::string(name));
    if (it == registry().end()) {
      std::string known;
      for (const auto& [n, reg] : registry()) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      throw std::invalid_argument("unknown scenario '" + std::string(name) +
                                  "' (known: " + known + ")");
    }
    factory = it->second.factory;
  }
  ScenarioSetup setup = factory(params);
  SAATH_EXPECTS(setup.source != nullptr);
  return setup;
}

ScenarioRunResult run_scenario(std::string_view name,
                               const ScenarioParams& params,
                               std::string_view scheduler, ResultSink* sink) {
  ScenarioSetup setup = make_scenario(name, params);
  const std::string sched_name = scheduler.empty()
                                     ? setup.default_scheduler
                                     : std::string(scheduler);
  auto sched = make_scheduler(sched_name);
  SimConfig cfg = setup.config;
  apply_scheduler_sim_overrides(sched_name, cfg);
  apply_run_params(params, cfg);
  reject_unread_params(params, name);
  Engine engine(setup.source, *sched, cfg);
  if (sink) engine.set_result_sink(sink);
  ScenarioRunResult out;
  out.result = engine.run();
  out.stats = engine.stats();
  out.rounds = engine.scheduling_rounds();
  out.now = engine.now();
  return out;
}

std::vector<CampaignOutcome> run_campaign(std::span<const CampaignCell> cells,
                                          int jobs) {
  std::vector<CampaignOutcome> out(cells.size());
  if (cells.empty()) return out;
  const auto run_cell = [&](std::size_t i) {
    const CampaignCell& cell = cells[i];
    out[i].run =
        run_scenario(cell.scenario, cell.params, cell.scheduler, &out[i].agg);
  };
  const int workers = static_cast<int>(std::min<std::size_t>(
      cells.size(), static_cast<std::size_t>(std::max(jobs, 1))));
  if (workers < 2) {
    for (std::size_t i = 0; i < cells.size(); ++i) run_cell(i);
    return out;
  }
  // Outcomes land by cell index, so the report order (and every byte of
  // it) is independent of which worker ran which cell when.
  parallel::ThreadPool pool(workers);
  pool.parallel_for_shards(
      static_cast<int>(cells.size()),
      [&](int i) { run_cell(static_cast<std::size_t>(i)); });
  return out;
}

}  // namespace saath::workload
