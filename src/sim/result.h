// Simulation outputs: one record per CoFlow plus run-level aggregates.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/stats.h"
#include "common/time.h"
#include "common/units.h"

namespace saath {

struct CoflowRecord {
  CoflowId id;
  JobId job;
  int stage = 0;
  SimTime arrival = 0;
  SimTime finish = 0;
  int width = 0;
  Bytes total_bytes = 0;
  /// Per-flow completion times measured from the CoFlow's arrival; used by
  /// the out-of-sync analysis (Fig 2c / Fig 13).
  std::vector<double> flow_fcts_seconds;
  std::vector<double> flow_sizes;
  bool equal_flow_lengths = true;

  [[nodiscard]] SimTime cct() const { return finish - arrival; }
  [[nodiscard]] double cct_seconds() const { return to_seconds(cct()); }
};

struct SimResult {
  std::string scheduler;
  std::string trace;
  SimTime makespan = 0;
  std::vector<CoflowRecord> coflows;

  /// CCTs in seconds, ordered by CoFlow id (same order for every scheduler
  /// on the same trace, so per-CoFlow ratios line up).
  [[nodiscard]] std::vector<double> ccts_seconds() const;
  [[nodiscard]] Summary cct_summary() const;
  [[nodiscard]] const CoflowRecord* find(CoflowId id) const;

  /// Per-CoFlow speedup of `baseline` over *this* result: baseline CCT /
  /// this CCT, matched by CoFlow id (§6.1's definition).
  [[nodiscard]] std::vector<double> speedup_over(const SimResult& baseline) const;
};

/// Streaming consumer of per-CoFlow completion records. With a sink attached
/// and SimConfig::record_results = false, the engine never materializes the
/// per-CoFlow vector in SimResult — million-CoFlow streaming runs aggregate
/// CCT/JCT online in O(1) memory instead. The engine frees every finished
/// CoflowState mid-run whichever way record_results is set: it decides only
/// whether the records are kept.
///
/// Contract: on_coflow_complete is invoked exactly once per finished CoFlow,
/// at its completion instant, in completion order (NOT id order — sort-by-id
/// is a property of the materialized SimResult only); the record reference
/// is valid only for the duration of the call. on_run_end fires once, after
/// the last completion, with the run's makespan.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void on_coflow_complete(const CoflowRecord& rec, SimTime now) = 0;
  virtual void on_run_end(SimTime makespan) { (void)makespan; }
};

}  // namespace saath
