// Paper-shape check for Fig 9: Saath's per-CoFlow speedup over Aalo and
// UC-TCP on the synthetic FB and OSP traces, under fig09_speedup's config
// (1 Gbps ports, δ = 8 ms).
//
// The paper reports Saath 1.53x faster than Aalo at the median on its FB
// trace and 1.42x on OSP. These traces are synthetic stand-ins, so the
// bands are centred on the values this engine computed when the test was
// written, not on the paper's: every median must stay above 1 (Saath
// wins) and each median and P90 within ±10% of its recorded value. The
// bands catch drift that the event-driven fast path and the scan reference
// engine would share, such as a change to a scheduler or the rate model;
// they do not measure agreement with the paper.
//
// SEBF is left out: its offline ordering costs seconds per trace.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/metrics.h"
#include "trace/synth.h"

namespace saath {
namespace {

struct Band {
  const char* baseline;
  double median;
  double p90;
};

void expect_shape(const trace::Trace& trace, const std::vector<Band>& bands) {
  SimConfig config;
  config.port_bandwidth = gbps(1);
  config.delta = msec(8);
  const auto results = run_schedulers(trace, {"saath", "aalo", "uc-tcp"},
                                      config, 2.0, /*jobs=*/3);
  for (const Band& band : bands) {
    const SpeedupSummary s =
        summarize_speedup(results.at("saath"), results.at(band.baseline));
    EXPECT_GT(s.median, 1.0) << "saath vs " << band.baseline;
    EXPECT_NEAR(s.median, band.median, 0.1 * band.median)
        << "saath vs " << band.baseline;
    EXPECT_NEAR(s.p90, band.p90, 0.1 * band.p90)
        << "saath vs " << band.baseline;
  }
}

TEST(PaperShape, Fig9SpeedupOnFbTrace) {
  expect_shape(trace::synth_fb_trace(), {{"aalo", 1.1137752, 2.9261801},
                                         {"uc-tcp", 8.8457258, 97.461642}});
}

TEST(PaperShape, Fig9SpeedupOnOspTrace) {
  expect_shape(trace::synth_osp_trace(), {{"aalo", 1.0776716, 4.6275575},
                                          {"uc-tcp", 17.008311, 253.32043}});
}

}  // namespace
}  // namespace saath
