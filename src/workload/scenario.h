// Scenario registry: named, parameterized workload + config recipes.
//
// A scenario is a factory that builds a fresh WorkloadSource (sources are
// consumed by a run) plus the SimConfig it should run under. Benches,
// examples, CI smoke jobs, and the saath_sim driver all pull the same named
// scenarios from here, so "steady-churn" means the same workload
// everywhere. Registration is open: user code can register_scenario() its
// own recipes next to the built-ins (fb-replay, osp-replay, steady-churn,
// multi-tenant-merge, failure-storm, pipeline-dag).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.h"
#include "workload/sink.h"
#include "workload/source.h"

namespace saath::workload {

/// String key=value overrides from the driver command line.
///
/// Reads are strict and audited: get_int/get_double throw
/// std::invalid_argument on a malformed value (naming key and value —
/// "coflows=12abc" fails instead of silently truncating to 12), and every
/// accessor marks its key consumed. run_scenario() rejects parameter sets
/// with unconsumed keys, so a typo like "coflow=200" exits loudly instead
/// of silently running the default workload. Keys in universal_keys() are
/// exempt — CI matrices pass them to heterogeneous scenarios that each
/// read only a subset.
class ScenarioParams {
 public:
  ScenarioParams() = default;
  explicit ScenarioParams(std::map<std::string, std::string> values)
      : values_(std::move(values)) {}

  void set(const std::string& key, std::string value) {
    values_[key] = std::move(value);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    consumed_.insert(key);
    return values_.count(key) > 0;
  }
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  /// get_int for an int field: a value past int32 throws too.
  [[nodiscard]] int get_int32(const std::string& key, int fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       std::string fallback) const;

  /// Keys present but never read by any accessor (sorted). Universal keys
  /// are never reported.
  [[nodiscard]] std::vector<std::string> unconsumed() const;
  /// Cross-scenario keys every driver may pass regardless of what the
  /// selected scenario reads.
  [[nodiscard]] static const std::vector<std::string>& universal_keys();

 private:
  std::map<std::string, std::string> values_;
  /// Consumption audit; mutable because reads are semantically const.
  mutable std::set<std::string> consumed_;
};

/// One runnable instantiation of a scenario.
struct ScenarioSetup {
  std::shared_ptr<WorkloadSource> source;
  SimConfig config;
  std::string default_scheduler = "saath";
};

struct ScenarioInfo {
  std::string name;
  std::string description;
};

using ScenarioFactory = std::function<ScenarioSetup(const ScenarioParams&)>;

/// Registers (or replaces) a named scenario.
void register_scenario(std::string name, std::string description,
                       ScenarioFactory factory);

/// All registered scenarios (built-ins included), sorted by name.
[[nodiscard]] std::vector<ScenarioInfo> known_scenarios();

/// Builds a fresh setup. Throws std::invalid_argument on unknown names
/// (listing the known ones).
[[nodiscard]] ScenarioSetup make_scenario(std::string_view name,
                                          const ScenarioParams& params = {});

/// Applies the run overrides every scenario takes to `cfg`: records=0
/// (no result records), stall_epochs and requeue (quarantine), and
/// strict_input=0 (input faults become typed rejects).
void apply_run_params(const ScenarioParams& params, SimConfig& cfg);

/// Throws std::invalid_argument naming `scenario` and every key of
/// `params` no accessor read: a typo or a knob the scenario lacks.
void reject_unread_params(const ScenarioParams& params,
                          std::string_view scenario);

/// Outcome of a driver run: the (possibly record-free) SimResult plus the
/// engine telemetry the driver and CI gates report.
struct ScenarioRunResult {
  SimResult result;
  EngineStats stats;
  int rounds = 0;
  SimTime now = 0;
};

/// One-call driver: make the scenario, build the scheduler (empty name =
/// the scenario's default), run the engine. `sink` may be null; when given
/// it receives every completion record (and the run can set
/// config.record_results = false via params key "records=0").
[[nodiscard]] ScenarioRunResult run_scenario(std::string_view name,
                                             const ScenarioParams& params = {},
                                             std::string_view scheduler = {},
                                             ResultSink* sink = nullptr);

/// One independent cell of a scenario campaign: a (scenario, params,
/// scheduler) triple run under its own Engine, Fabric, scheduler instance,
/// and RNG streams.
struct CampaignCell {
  std::string scenario;
  ScenarioParams params;
  /// Empty = the scenario's default scheduler.
  std::string scheduler;
};

/// A finished cell: the run outcome plus the cell's private online CCT
/// aggregation (each cell runs with its own CctAggregator sink, so
/// record-free runs still report CCT statistics).
struct CampaignOutcome {
  ScenarioRunResult run;
  CctAggregator agg;
};

/// Runs every cell and returns outcomes in cell order. `jobs` > 1 executes
/// cells concurrently on a parallel::ThreadPool (at most one worker per
/// cell). Cells share no mutable state — the registry lookup is
/// mutex-guarded and the few process-global counters are atomics that
/// never feed results — so the outcomes are bitwise independent of `jobs`.
[[nodiscard]] std::vector<CampaignOutcome> run_campaign(
    std::span<const CampaignCell> cells, int jobs = 1);

}  // namespace saath::workload
