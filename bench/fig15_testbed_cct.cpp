// Fig 15 — [testbed] CCT speedup CDF of Saath over Aalo under the runtime
// emulation (pipelined coordinator, one-δ-stale schedules; DESIGN.md §2
// documents the Azure-testbed substitution).
#include "analysis/table.h"
#include "bench_util.h"
#include "common/stats.h"
#include "runtime/testbed.h"
#include "sched/saath.h"

using namespace saath;

int main() {
  bench::print_header(
      "Fig 15: [testbed] per-CoFlow CCT speedup CDF, Saath vs Aalo",
      "paper: ratios 0.09-12.15x, average 1.88x, median 1.43x, >70% of "
      "CoFlows improved; starvation protection kicked in for <1%");

  const auto trace = bench::fb_trace();
  runtime::TestbedConfig cfg;
  cfg.sim = bench::paper_sim_config();

  SaathScheduler saath;
  SaathScheduler aalo(aalo_config());
  const auto r_saath = runtime::run_testbed(trace, saath, cfg);
  const auto r_aalo = runtime::run_testbed(trace, aalo, cfg);

  const auto speedups = r_saath.speedup_over(r_aalo);
  const auto s = summarize(speedups);
  std::printf("\nratio range: %.2f - %.2f, average %.2f, median %.2f\n", s.min,
              s.max, s.mean, s.p50);
  std::printf("CoFlows improved (ratio > 1): %.1f%%\n",
              100.0 * (1.0 - fraction_at_most(speedups, 1.0)));

  print_cdf(std::cout, "testbed CCT speedup CDF (Saath over Aalo)",
            empirical_cdf({speedups.begin(), speedups.end()}, 25));
  return 0;
}
