#include <gtest/gtest.h>

#include <sstream>

#include "test_util.h"
#include "trace/fb_format.h"
#include "trace/synth.h"
#include "trace/trace.h"

namespace saath::trace {
namespace {

TEST(Trace, NormalizeSortsAndReassignsIds) {
  Trace t;
  t.num_ports = 4;
  t.coflows.push_back(testing::make_coflow(7, seconds(5), {{0, 1, 10}}));
  t.coflows.push_back(testing::make_coflow(3, seconds(1), {{2, 3, 10}}));
  t.normalize();
  EXPECT_EQ(t.coflows[0].arrival, seconds(1));
  EXPECT_EQ(t.coflows[0].id, CoflowId{0});
  EXPECT_EQ(t.coflows[1].id, CoflowId{1});
}

TEST(Trace, NormalizeRejectsBadPorts) {
  Trace t;
  t.num_ports = 2;
  t.coflows.push_back(testing::make_coflow(0, 0, {{0, 5, 10}}));
  EXPECT_THROW(t.normalize(), std::invalid_argument);
}

TEST(Trace, NormalizeRejectsEmptyCoflow) {
  Trace t;
  t.num_ports = 2;
  t.coflows.push_back({});
  t.coflows[0].id = CoflowId{0};
  EXPECT_THROW(t.normalize(), std::invalid_argument);
}

TEST(Trace, TotalBytes) {
  Trace t;
  t.num_ports = 3;
  t.coflows.push_back(testing::make_coflow(0, 0, {{0, 1, 100}, {1, 2, 200}}));
  t.coflows.push_back(testing::make_coflow(1, 0, {{2, 0, 300}}));
  EXPECT_EQ(t.total_bytes(), 600);
}

TEST(Trace, ScaledArrivalsSpeedsUp) {
  Trace t;
  t.num_ports = 2;
  t.coflows.push_back(testing::make_coflow(0, seconds(10), {{0, 1, 10}}));
  t.normalize();
  const Trace fast = t.scaled_arrivals(2.0);  // 2x faster arrivals
  EXPECT_EQ(fast.coflows[0].arrival, seconds(5));
  const Trace slow = t.scaled_arrivals(0.5);
  EXPECT_EQ(slow.coflows[0].arrival, seconds(20));
}

TEST(Trace, EqualFlowLengthDetection) {
  EXPECT_TRUE(has_equal_flow_lengths(
      testing::make_coflow(0, 0, {{0, 1, 100}, {1, 2, 100}})));
  EXPECT_FALSE(has_equal_flow_lengths(
      testing::make_coflow(0, 0, {{0, 1, 100}, {1, 2, 250}})));
  EXPECT_TRUE(has_equal_flow_lengths(testing::make_coflow(0, 0, {{0, 1, 5}})));
}

TEST(FbFormat, ParsesMeshExpansion) {
  // 1 coflow: 2 mappers (ports 0,1), 2 reducers (2:10MB, 3:30MB).
  std::istringstream in(
      "4 1\n"
      "0 1000 2 0 1 2 2:10 3:30\n");
  const Trace t = parse_fb_trace(in);
  EXPECT_EQ(t.num_ports, 4);
  ASSERT_EQ(t.coflows.size(), 1u);
  const auto& c = t.coflows[0];
  EXPECT_EQ(c.arrival, msec(1000));
  ASSERT_EQ(c.width(), 4);  // 2x2 mesh
  // Each mapper sends half of each reducer's total.
  Bytes to_r2 = 0, to_r3 = 0;
  for (const auto& f : c.flows) {
    if (f.dst == 2) to_r2 += f.size;
    if (f.dst == 3) to_r3 += f.size;
  }
  EXPECT_EQ(to_r2, 10 * kMB);
  EXPECT_EQ(to_r3, 30 * kMB);
}

TEST(FbFormat, ShiftsOneBasedPorts) {
  // Benchmark files number ports 1..N.
  std::istringstream in(
      "2 1\n"
      "0 0 1 1 1 2:5\n");
  const Trace t = parse_fb_trace(in);
  ASSERT_EQ(t.coflows[0].flows.size(), 1u);
  EXPECT_EQ(t.coflows[0].flows[0].src, 0);
  EXPECT_EQ(t.coflows[0].flows[0].dst, 1);
}

TEST(FbFormat, RejectsMalformedHeader) {
  std::istringstream in("not a number\n");
  EXPECT_THROW(parse_fb_trace(in), std::runtime_error);
}

TEST(FbFormat, RejectsMissingReducerColon) {
  std::istringstream in(
      "2 1\n"
      "0 0 1 0 1 1\n");
  EXPECT_THROW(parse_fb_trace(in), std::runtime_error);
}

TEST(FbFormat, RejectsTruncatedCoflowLine) {
  std::istringstream in(
      "2 2\n"
      "0 0 1 0 1 1:5\n");
  EXPECT_THROW(parse_fb_trace(in), std::runtime_error);
}

/// The message parse_fb_trace rejects `text` with, or "parsed".
std::string fb_reject(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)parse_fb_trace(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "parsed";
}

// A reducer token must be exactly <port>:<MB>, with a port inside the
// header's fabric and a size that fits Bytes; every reject is a
// std::runtime_error naming the line.
TEST(FbFormat, HostileReducerTokensRejectTyped) {
  const struct {
    const char* reducer;
    const char* error;
  } cases[] = {
      {"2x:1.5", "fb trace line 2: bad reducer token '2x:1.5'"},
      {"2:1.5junk", "fb trace line 2: bad reducer token '2:1.5junk'"},
      {"2:nan", "fb trace line 2: reducer size out of range '2:nan'"},
      {"2:1e300", "fb trace line 2: reducer size out of range '2:1e300'"},
      {"2:-1", "fb trace line 2: reducer size out of range '2:-1'"},
      {"4294967298:1.5", "fb trace line 2: port outside the fabric 4294967298"},
      {"9:1.5", "fb trace line 2: port outside the fabric 9"},
  };
  for (const auto& k : cases) {
    EXPECT_EQ(fb_reject(std::string("4 1\n0 0 1 0 1 ") + k.reducer + "\n"),
              k.error)
        << k.reducer;
  }
  // Port 4 fits a 1-based trace, not one that also names port 0.
  EXPECT_EQ(fb_reject("4 2\n0 0 1 1 1 2:1\n1 0 1 0 1 4:1\n"),
            "fb trace line 3: port 4 outside the fabric of a 0-based trace");
  EXPECT_EQ(fb_reject("4 1\n0 0 1 1 1 4:1\n"), "parsed");
  EXPECT_EQ(fb_reject("4 1\n0 9223372036854776 1 0 1 2:1\n"),
            "fb trace line 2: arrival out of range 9223372036854776");
  EXPECT_EQ(fb_reject("4 1\n0 0 1 0x 1 2:1\n"),
            "fb trace line 2: bad integer '0x'");
}

TEST(FbFormat, RoundTripPreservesStructure) {
  std::istringstream in(
      "4 2\n"
      "0 0 2 0 1 2 2:10 3:30\n"
      "1 2000 1 3 1 0:5\n");
  const Trace t = parse_fb_trace(in);
  std::ostringstream out;
  write_fb_trace(out, t);
  std::istringstream in2(out.str());
  const Trace t2 = parse_fb_trace(in2);
  ASSERT_EQ(t2.coflows.size(), t.coflows.size());
  for (std::size_t i = 0; i < t.coflows.size(); ++i) {
    EXPECT_EQ(t2.coflows[i].width(), t.coflows[i].width());
    EXPECT_NEAR(static_cast<double>(t2.coflows[i].total_bytes()),
                static_cast<double>(t.coflows[i].total_bytes()),
                static_cast<double>(t.coflows[i].width()));
    EXPECT_EQ(t2.coflows[i].arrival, t.coflows[i].arrival);
  }
}

TEST(Synth, FbTraceMatchesPublishedShape) {
  const Trace t = synth_fb_trace();
  EXPECT_EQ(t.num_ports, 150);
  EXPECT_EQ(static_cast<int>(t.coflows.size()), 526);
  const TraceStats s = compute_stats(t);
  // Fig 2(a)/(b): 23% single-flow, 50% multi equal, 27% multi unequal.
  // The unequal mass runs a few points low: single-reducer meshes force an
  // equal split regardless of the drawn skew (see synth.cc).
  EXPECT_NEAR(s.frac_single_flow, 0.23, 0.06);
  EXPECT_NEAR(s.frac_multi_equal, 0.50, 0.08);
  EXPECT_NEAR(s.frac_multi_unequal, 0.27, 0.10);
}

TEST(Synth, FbTraceBinMassNearTable1) {
  const Trace t = synth_fb_trace();
  std::array<int, 4> bins{};
  for (const auto& c : t.coflows) {
    const bool small = c.total_bytes() <= 100 * kMB;
    const bool narrow = c.width() <= 10;
    if (small && narrow) ++bins[0];
    if (small && !narrow) ++bins[1];
    if (!small && narrow) ++bins[2];
    if (!small && !narrow) ++bins[3];
  }
  const double n = static_cast<double>(t.coflows.size());
  EXPECT_NEAR(bins[0] / n, 0.54, 0.10);  // paper: 54%
  EXPECT_NEAR(bins[1] / n, 0.14, 0.08);  // 14%
  EXPECT_NEAR(bins[2] / n, 0.12, 0.08);  // 12%
  EXPECT_NEAR(bins[3] / n, 0.20, 0.08);  // 20%
}

TEST(Synth, DeterministicPerSeed) {
  const Trace a = synth_fb_trace();
  const Trace b = synth_fb_trace();
  ASSERT_EQ(a.coflows.size(), b.coflows.size());
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    EXPECT_EQ(a.coflows[i].arrival, b.coflows[i].arrival);
    EXPECT_EQ(a.coflows[i].total_bytes(), b.coflows[i].total_bytes());
  }
  SynthConfig other;
  other.seed = 99;
  const Trace c = synth_fb_trace(other);
  bool differs = false;
  for (std::size_t i = 0; i < std::min(a.coflows.size(), c.coflows.size());
       ++i) {
    if (a.coflows[i].total_bytes() != c.coflows[i].total_bytes()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Synth, ArrivalsSortedWithinSpan) {
  SynthConfig cfg;
  cfg.arrival_span = seconds(30);
  const Trace t = synth_fb_trace(cfg);
  SimTime prev = 0;
  for (const auto& c : t.coflows) {
    EXPECT_GE(c.arrival, prev);
    EXPECT_LE(c.arrival, seconds(30));
    prev = c.arrival;
  }
}

TEST(Synth, OspTraceIsBusierThanFb) {
  const Trace fb = synth_fb_trace();
  const Trace osp = synth_osp_trace();
  EXPECT_EQ(osp.num_ports, 100);
  EXPECT_EQ(static_cast<int>(osp.coflows.size()), 1000);
  // Arrival rate per port (coflows / sec / port): OSP must exceed FB — the
  // §6.1 property explaining the bigger P90 win.
  const double fb_span = to_seconds(fb.coflows.back().arrival);
  const double osp_span = to_seconds(osp.coflows.back().arrival);
  const double fb_rate = 526.0 / fb_span / 150.0;
  const double osp_rate = 1000.0 / osp_span / 100.0;
  EXPECT_GT(osp_rate, 1.5 * fb_rate);
}

TEST(Synth, SmallTraceRespectsBounds) {
  const Trace t = synth_small_trace(10, 20, 3);
  EXPECT_EQ(t.num_ports, 10);
  EXPECT_EQ(static_cast<int>(t.coflows.size()), 20);
  for (const auto& c : t.coflows) {
    for (const auto& f : c.flows) {
      EXPECT_GE(f.src, 0);
      EXPECT_LT(f.src, 10);
      EXPECT_GE(f.dst, 0);
      EXPECT_LT(f.dst, 10);
      EXPECT_GT(f.size, 0);
    }
  }
}

TEST(Synth, WidthsNeverExceedPortMesh) {
  const Trace t = synth_fb_trace();
  for (const auto& c : t.coflows) {
    EXPECT_LE(c.width(), 150 * 150);
    EXPECT_GE(c.width(), 1);
  }
}

}  // namespace
}  // namespace saath::trace
