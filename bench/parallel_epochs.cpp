// Concurrent campaign benchmark — the perf trajectory anchor for the
// parallel/ layer.
//
// K independent steady-churn cells run through run_campaign() at jobs=1
// and at jobs=N; the bench reports the wall ratio and digests every
// cell's aggregate (count, makespan, CCT bits). The numbers are
// meaningless if the two digests differ, so that exits 2.
//
// The speedup ratio is only meaningful with enough cores; the JSON carries
// `cores` so the CI gate can scale its thresholds (the digest check is
// unconditional).
//
//   $ ./parallel_epochs [--cells K] [--jobs N] [--out BENCH_parallel.json]
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "workload/scenario.h"

namespace saath {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             Clock::now() - start)
      .count();
}

void mix(std::uint64_t& digest, std::uint64_t v) {
  digest ^= v + 0x9e3779b97f4a7c15ull + (digest << 6) + (digest >> 2);
}

struct CampaignRun {
  double wall_ms = 0;
  std::uint64_t digest = 0;
};

CampaignRun run_cells(const std::vector<workload::CampaignCell>& cells,
                      int jobs) {
  const auto t0 = Clock::now();
  const auto outcomes = workload::run_campaign(cells, jobs);
  CampaignRun out;
  out.wall_ms = ms_since(t0);
  for (const auto& o : outcomes) {
    mix(out.digest, static_cast<std::uint64_t>(o.agg.count()));
    mix(out.digest, static_cast<std::uint64_t>(o.agg.makespan()));
    mix(out.digest, std::bit_cast<std::uint64_t>(o.agg.mean_cct_seconds()));
    mix(out.digest, std::bit_cast<std::uint64_t>(o.agg.max_cct_seconds()));
    mix(out.digest, static_cast<std::uint64_t>(o.run.rounds));
  }
  return out;
}

int run(int argc, char** argv) {
  int cells = 6;
  int jobs = 8;
  std::string out = "BENCH_parallel.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--cells") == 0) cells = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--jobs") == 0) jobs = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out = argv[i + 1];
  }
  out = bench::bench_out_path(out);
  const int cores =
      static_cast<int>(std::thread::hardware_concurrency());

  bench::print_header("parallel campaigns: run_campaign at jobs=1 vs jobs=N",
                      "");

  std::vector<workload::CampaignCell> campaign;
  for (int i = 0; i < cells; ++i) {
    workload::CampaignCell cell;
    cell.scenario = "steady-churn";
    cell.scheduler = "saath";
    cell.params.set("coflows", "400");
    cell.params.set("seed", std::to_string(11 + i * 7));
    cell.params.set("records", "0");
    campaign.push_back(std::move(cell));
  }
  const CampaignRun camp_serial = run_cells(campaign, 1);
  const CampaignRun camp_jobs = run_cells(campaign, jobs);
  const bool campaign_match = camp_serial.digest == camp_jobs.digest;
  const double campaign_ratio =
      camp_jobs.wall_ms > 0 ? camp_serial.wall_ms / camp_jobs.wall_ms : 0;
  std::printf("campaign: %d cells, jobs=1 %.1f ms, jobs=%d %.1f ms — ratio "
              "%.2fx, digests %s\n",
              cells, camp_serial.wall_ms, jobs, camp_jobs.wall_ms,
              campaign_ratio, campaign_match ? "identical" : "DIVERGED");
  std::printf("cores: %d (ratios need >= %d cores to mean anything)\n", cores,
              jobs);

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"parallel_epochs\",\n"
      "  \"cores\": %d,\n"
      "  \"jobs\": %d,\n"
      "  \"campaign\": {\"cells\": %d, \"serial_ms\": %.3f, "
      "\"parallel_ms\": %.3f, \"ratio\": %.3f, \"digest_match\": %s}\n"
      "}\n",
      cores, jobs, cells, camp_serial.wall_ms, camp_jobs.wall_ms,
      campaign_ratio, campaign_match ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return campaign_match ? 0 : 2;
}

}  // namespace
}  // namespace saath

int main(int argc, char** argv) { return saath::run(argc, argv); }
