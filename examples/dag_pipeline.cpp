// Multi-stage DAG scheduling (§4.3): a Hive-style query with a diamond
// dependency graph, where each stage is one CoFlow released when its
// parents finish. Demonstrates workload::DagSource, which releases the
// stages off the engine's completion feedback, and a ResultSink watching
// them finish.
//
//   $ ./dag_pipeline
#include <cstdio>
#include <memory>

#include "coflow/job.h"
#include "sched/saath.h"
#include "sim/engine.h"
#include "workload/dag_source.h"

using namespace saath;

namespace {

/// Prints each stage as it finishes.
class StagePrinter final : public ResultSink {
 public:
  void on_coflow_complete(const CoflowRecord& rec, SimTime now) override {
    std::printf("t=%.3fs: stage %d finished (released t=%.3fs, CCT %.3fs)\n",
                to_seconds(now), rec.stage, to_seconds(rec.arrival),
                rec.cct_seconds());
  }
};

}  // namespace

int main() {
  // Diamond DAG: stage0 -> {stage1, stage2} -> stage3.
  JobSpec job;
  job.id = JobId{1};
  job.stages.push_back({{{0, 4, 200 * kMB}, {1, 5, 200 * kMB}}, {}});
  job.stages.push_back({{{4, 2, 80 * kMB}}, {0}});
  job.stages.push_back({{{5, 3, 120 * kMB}}, {0}});
  job.stages.push_back({{{2, 6, 40 * kMB}, {3, 6, 40 * kMB}}, {1, 2}});
  job.validate();

  auto dag = std::make_shared<workload::DagSource>("dag", 8);
  dag->add_job(job);

  SaathScheduler scheduler;
  Engine engine(dag, scheduler, SimConfig{});
  StagePrinter printer;
  engine.set_result_sink(&printer);
  const auto result = engine.run();
  std::printf("ran %zu coflows; query completed at t=%.3fs\n",
              result.coflows.size(), to_seconds(dag->job_finish_time(job.id)));
  return 0;
}
