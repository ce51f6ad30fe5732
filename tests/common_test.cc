#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_table.h"
#include "common/histogram.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"
#include "common/units.h"

namespace saath {
namespace {

TEST(Ids, DefaultIsInvalid) {
  CoflowId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(CoflowId{0}.valid());
  EXPECT_TRUE(CoflowId{42}.valid());
}

TEST(Ids, Ordering) {
  EXPECT_LT(CoflowId{1}, CoflowId{2});
  EXPECT_EQ(FlowId{7}, FlowId{7});
  EXPECT_NE(JobId{1}, JobId{2});
}

TEST(Ids, DistinctTypesHashIndependently) {
  std::unordered_set<CoflowId> coflows{CoflowId{1}, CoflowId{2}, CoflowId{1}};
  EXPECT_EQ(coflows.size(), 2u);
}

TEST(Time, Conversions) {
  EXPECT_EQ(msec(8), 8000);
  EXPECT_EQ(seconds(2), 2'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_seconds(msec(500)), 0.5);
}

TEST(Units, Constants) {
  EXPECT_EQ(kMB, 1'000'000);
  EXPECT_EQ(100 * kMB, 100'000'000);
  EXPECT_DOUBLE_EQ(gbps(1), 125e6);
  EXPECT_DOUBLE_EQ(gbps(10), 1.25e9);
}

TEST(Stats, PercentileSingleValue) {
  const std::vector<double> v{5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 10), 1.4);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::vector<double> v{9, 1, 5, 3, 7};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_DOUBLE_EQ(stddev(v), 2.0);
  EXPECT_DOUBLE_EQ(normalized_stddev(v), 0.4);
}

TEST(Stats, NormalizedStddevZeroMean) {
  const std::vector<double> v{0, 0, 0};
  EXPECT_DOUBLE_EQ(normalized_stddev(v), 0.0);
}

TEST(Stats, NormalizedStddevEqualValues) {
  const std::vector<double> v{3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(normalized_stddev(v), 0.0);
}

TEST(Stats, SummaryFields) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_NEAR(s.p50, 50.5, 0.01);
  EXPECT_NEAR(s.p90, 90.1, 0.01);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(Stats, EmpiricalCdfEndsAtOne) {
  std::vector<double> v{3, 1, 2};
  const auto cdf = empirical_cdf(v);
  ASSERT_FALSE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().value, 3.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LE(cdf[i - 1].fraction, cdf[i].fraction);
  }
}

TEST(Stats, EmpiricalCdfDownsamples) {
  std::vector<double> v(10'000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const auto cdf = empirical_cdf(v, 100);
  EXPECT_LE(cdf.size(), 102u);
}

TEST(Stats, FractionAtMost) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(fraction_at_most(v, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(fraction_at_most(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(fraction_at_most(v, 10.0), 1.0);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, UniformRealBounds) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(1.5, 2.5);
    EXPECT_GE(v, 1.5);
    EXPECT_LT(v, 2.5);
  }
}

TEST(Rng, ParetoAboveScale) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(10.0, 1.5), 10.0);
  }
}

TEST(Rng, ForkIndependence) {
  Rng parent(5);
  Rng fork = parent.fork();
  // The fork must not replay the parent's stream.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (parent.uniform_int(0, 1'000'000) != fork.uniform_int(0, 1'000'000)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(LogHistogram, ExactAggregatesApproxPercentiles) {
  LogHistogram h(1e-6, 1.05, 512);
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-4);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.max(), 0.1);
  EXPECT_NEAR(h.sum(), 1000.0 * 1001.0 / 2.0 * 1e-4, 1e-9);
  EXPECT_NEAR(h.mean(), h.sum() / 1000.0, 1e-12);
  // Relative error of a log-bucketed percentile is bounded by the ratio.
  EXPECT_NEAR(h.percentile(50), 0.05, 0.05 * 0.06);
  EXPECT_NEAR(h.percentile(99), 0.099, 0.099 * 0.06);
}

TEST(LogHistogram, ClampsAndEmptyAndReset) {
  LogHistogram h(1.0, 2.0, 4);
  EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);  // empty
  h.record(0.001);  // below floor: clamps into bucket 0
  EXPECT_EQ(h.bucket_of(0.001), 0);
  h.record(1e9);  // past the last bucket: clamps, exact max survives
  EXPECT_EQ(h.bucket_of(1e9), 3);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(LogHistogram, MergeMatchesSequentialRecord) {
  LogHistogram a(1e-6, 1.05, 128);
  LogHistogram b(1e-6, 1.05, 128);
  LogHistogram both(1e-6, 1.05, 128);
  for (int i = 1; i <= 50; ++i) {
    a.record(i * 1e-3);
    both.record(i * 1e-3);
  }
  for (int i = 51; i <= 100; ++i) {
    b.record(i * 1e-3);
    both.record(i * 1e-3);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.sum(), both.sum());
  EXPECT_DOUBLE_EQ(a.max(), both.max());
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), both.percentile(p));
  }
}

// ---------------------------------------------------------------- FlatTable

/// Cell a key lands in when it is alone in a fresh 8-cell table: its home.
std::size_t home_in_8(std::int64_t key) {
  IdTable<int> probe;
  return probe.insert(key).index;
}

// Linear probing runs past the last cell back to cell 0; erasing inside
// such a run must shift the later members back across the wrap.
TEST(FlatTable, ProbeRunsWrapTheCellArray) {
  std::vector<std::int64_t> last;  // keys whose home is cell 7
  std::int64_t first = -1;         // a key whose home is cell 0
  for (std::int64_t k = 0; last.size() < 3 || first < 0; ++k) {
    const std::size_t home = home_in_8(k);
    if (home == 7 && last.size() < 3) last.push_back(k);
    if (home == 0 && first < 0) first = k;
  }
  // An 8-cell table holds up to four keys before it grows.
  IdTable<int> table;
  for (const std::int64_t k : {last[0], last[1], first, last[2]}) {
    const auto hit = table.insert(k);
    ASSERT_TRUE(hit.inserted);
    table.value(hit.index) = static_cast<int>(k);
  }
  EXPECT_EQ(table.find(last[0]), 7u);
  EXPECT_EQ(table.find(last[1]), 0u);
  EXPECT_EQ(table.find(first), 1u);
  EXPECT_EQ(table.find(last[2]), 2u);

  // Erasing cell 0 pulls `first` home and last[2] one cell back.
  table.erase_at(table.find(last[1]));
  EXPECT_EQ(table.find(last[1]), table.npos);
  EXPECT_EQ(table.find(first), 0u);
  EXPECT_EQ(table.find(last[2]), 1u);
  // Erasing cell 7 pulls last[2] back across the wrap; `first` stays home.
  EXPECT_TRUE(table.erase(last[0]));
  EXPECT_EQ(table.find(last[2]), 7u);
  EXPECT_EQ(table.find(first), 0u);
  EXPECT_EQ(table.value(table.find(last[2])), static_cast<int>(last[2]));
  EXPECT_EQ(table.size(), 2u);
}

// Insert, find, erase_at and erase churn against std::unordered_map, with
// growth from empty to thousands of keys and back down.
TEST(FlatTable, ChurnMatchesUnorderedMap) {
  IdTable<int> table;
  std::unordered_map<std::int64_t, int> model;
  std::mt19937_64 rng(7);
  for (int step = 0; step < 200000; ++step) {
    // Mostly inserts in the first half, mostly erases in the second.
    const bool growing = step < 100000;
    const auto key = static_cast<std::int64_t>(rng() % 6000) - 3000;
    const auto roll = rng() % 8;
    if (roll < (growing ? 5u : 2u)) {
      const auto hit = table.insert(key);
      ASSERT_EQ(hit.inserted, !model.contains(key)) << "step " << step;
      table.value(hit.index) = step;
      model[key] = step;
    } else if (roll < 6) {
      const std::size_t i = table.find(key);
      ASSERT_EQ(i != table.npos, model.contains(key)) << "step " << step;
      if (i == table.npos) continue;
      ASSERT_EQ(table.value(i), model.at(key)) << "step " << step;
      table.erase_at(i);
      model.erase(key);
    } else {
      ASSERT_EQ(table.erase(key), model.erase(key) == 1) << "step " << step;
    }
    ASSERT_EQ(table.size(), model.size());
  }
  std::size_t visited = 0;
  table.for_each([&](std::int64_t key, int value) {
    ASSERT_TRUE(model.contains(key));
    EXPECT_EQ(value, model.at(key));
    ++visited;
  });
  EXPECT_EQ(visited, model.size());
  for (const auto& [key, value] : model) {
    ASSERT_NE(table.find(key), table.npos);
    EXPECT_EQ(table.value(table.find(key)), value);
  }
}

}  // namespace
}  // namespace saath
