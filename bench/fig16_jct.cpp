// Fig 16 — [testbed] job completion time speedup by shuffle-time fraction.
// Each CoFlow is one job's shuffle stage; compute time is derived from the
// sampled shuffle fraction (runtime/jobs.h).
#include "analysis/table.h"
#include "bench_util.h"
#include "runtime/jobs.h"
#include "runtime/testbed.h"
#include "sched/saath.h"

using namespace saath;

int main() {
  bench::print_header(
      "Fig 16: [testbed] JCT speedup by shuffle fraction",
      "paper: shuffle-heavy (>=50%) jobs 1.83x mean (P50 1.24, P90 2.81); "
      "all jobs 1.42x mean (P50 1.07, P90 1.98)");

  const auto trace = bench::fb_trace();
  runtime::TestbedConfig cfg;
  cfg.sim = bench::paper_sim_config();
  SaathScheduler saath;
  SaathScheduler aalo(aalo_config());
  const auto r_saath = runtime::run_testbed(trace, saath, cfg);
  const auto r_aalo = runtime::run_testbed(trace, aalo, cfg);

  const auto jobs = runtime::evaluate_jobs(r_saath, r_aalo);
  const auto by_bucket = runtime::summarize_jct(jobs);

  TextTable t({"shuffle fraction", "jobs", "P50", "P90"});
  for (int b = 0; b <= runtime::kNumShuffleBuckets; ++b) {
    t.add_row({runtime::shuffle_bucket_label(b),
               std::to_string(by_bucket.count[static_cast<std::size_t>(b)]),
               fmt(by_bucket.p50[static_cast<std::size_t>(b)]),
               fmt(by_bucket.p90[static_cast<std::size_t>(b)])});
  }
  t.print(std::cout);
  std::printf("mean speedup, all jobs: %.2fx; shuffle-heavy (>=50%%): %.2fx\n",
              by_bucket.mean_all, by_bucket.mean_shuffle_heavy);
  return 0;
}
