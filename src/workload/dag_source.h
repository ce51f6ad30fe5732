// Reactive DAG workload: multi-stage jobs (§4.3) as a WorkloadSource.
//
// Each job is a DAG of stages (coflow/job.h); root stages arrive at the
// job's arrival time, and a stage's CoFlow is emitted the instant its last
// dependency completes — driven by the completion feedback the engine
// delivers to every source. This re-expresses the runtime/jobs stage
// release as stream events, the only way input reaches the engine.
#pragma once

#include <cstdint>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "coflow/job.h"
#include "workload/source.h"

namespace saath::workload {

class DagSource : public WorkloadSource {
 public:
  DagSource(std::string name, int num_ports);

  /// Registers a job; its root stages (no deps) are queued at
  /// job.arrival. CoflowIds are assigned by this source in release order,
  /// so they are unique across jobs and ascending within any instant.
  void add_job(JobSpec job);

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] int num_ports() const override { return num_ports_; }
  [[nodiscard]] SimTime peek_next_time() override;
  [[nodiscard]] WorkloadEvent next() override;
  /// Marks the stage finished and queues newly-ready stages at `now`.
  void on_coflow_complete(const CoflowRecord& rec, SimTime now) override;

  [[nodiscard]] bool all_jobs_finished() const;
  /// kNever until the job's last stage completes.
  [[nodiscard]] SimTime job_finish_time(JobId id) const;

 private:
  void release_ready(JobTracker& tracker, SimTime at);

  struct Pending {
    SimTime time;
    std::int64_t id;
    CoflowSpec spec;
  };
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const {
      return a.time > b.time || (a.time == b.time && a.id > b.id);
    }
  };

  std::string name_;
  int num_ports_ = 0;
  std::map<JobId, JobTracker> jobs_;
  std::priority_queue<Pending, std::vector<Pending>, Later> ready_;
  std::int64_t next_id_ = 0;
};

}  // namespace saath::workload
