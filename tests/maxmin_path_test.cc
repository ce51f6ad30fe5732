// maxmin_fair_rates against the reference model's event-heap water-level
// solve (tests/reference/maxmin.h): production's dense, vectorizable core
// must produce BITWISE identical rates on every input — same freeze order,
// same float accumulation, same tie-breaks.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "fabric/maxmin.h"
#include "reference/maxmin.h"

namespace saath {
namespace {

std::vector<Rate> run_reference(std::span<const MaxMinDemand> demands,
                                std::span<const Rate> send,
                                std::span<const Rate> recv) {
  return reference::maxmin_fair_rates_heap(demands, send, recv);
}

std::vector<Rate> run_production(std::span<const MaxMinDemand> demands,
                                 std::span<const Rate> send,
                                 std::span<const Rate> recv) {
  return maxmin_fair_rates(demands, send, recv);
}

void expect_bitwise_equal(std::span<const Rate> a, std::span<const Rate> b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(Rate)), 0)
        << what << " demand " << i << ": reference=" << a[i]
        << " production=" << b[i];
  }
}

TEST(MaxMinPath, HandBuiltInstancesMatchBitwise) {
  // Classic 2x2 contention, one capped flow, one degenerate (epsilon) cap,
  // one zero-capacity port.
  const std::vector<MaxMinDemand> demands = {
      {0, 0, 0},     {0, 1, 0},       {1, 0, 0},
      {1, 1, 125.0}, {0, 0, 1e-13},  // degenerate cap: freezes at 0
      {2, 1, 0},
  };
  const std::vector<Rate> send = {1000.0, 500.0, 0.0};
  const std::vector<Rate> recv = {800.0, 1000.0, 300.0};
  expect_bitwise_equal(run_reference(demands, send, recv),
                       run_production(demands, send, recv), "hand-built");
}

TEST(MaxMinPath, EmptyAndSingletonEdgeCases) {
  const std::vector<Rate> caps = {100.0, 100.0};
  {
    const std::vector<MaxMinDemand> none;
    expect_bitwise_equal(run_reference(none, caps, caps),
                         run_production(none, caps, caps), "empty");
  }
  {
    const std::vector<MaxMinDemand> one = {{1, 0, 0}};
    expect_bitwise_equal(run_reference(one, caps, caps),
                         run_production(one, caps, caps), "singleton");
  }
}

TEST(MaxMinPath, RandomizedInstancesMatchBitwise) {
  std::mt19937 rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    const int num_ports = 1 + static_cast<int>(rng() % 40);
    const int num_demands = static_cast<int>(rng() % 300);
    std::uniform_real_distribution<double> cap_dist(0.0, 2000.0);
    std::uniform_real_distribution<double> flowcap_dist(0.0, 500.0);

    std::vector<Rate> send(static_cast<std::size_t>(num_ports));
    std::vector<Rate> recv(static_cast<std::size_t>(num_ports));
    for (auto& c : send) {
      // Mix heterogeneous, zero, and tiny (degenerate) capacities.
      const int kind = static_cast<int>(rng() % 10);
      c = kind == 0 ? 0.0 : kind == 1 ? 1e-13 : cap_dist(rng);
    }
    for (auto& c : recv) {
      const int kind = static_cast<int>(rng() % 10);
      c = kind == 0 ? 0.0 : kind == 1 ? 1e-13 : cap_dist(rng);
    }

    std::vector<MaxMinDemand> demands;
    demands.reserve(static_cast<std::size_t>(num_demands));
    for (int i = 0; i < num_demands; ++i) {
      MaxMinDemand d;
      d.src = static_cast<PortIndex>(rng() % static_cast<unsigned>(num_ports));
      d.dst = static_cast<PortIndex>(rng() % static_cast<unsigned>(num_ports));
      const int kind = static_cast<int>(rng() % 5);
      // Uncapped, capped, and degenerate-capped flows all appear.
      d.cap = kind == 0 ? flowcap_dist(rng) : kind == 1 ? 1e-13 : 0.0;
      demands.push_back(d);
    }

    const auto want = run_reference(demands, send, recv);
    const auto got = run_production(demands, send, recv);
    ASSERT_EQ(want.size(), got.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::memcmp(&want[i], &got[i], sizeof(Rate)), 0)
          << "trial " << trial << " demand " << i << ": reference=" << want[i]
          << " production=" << got[i];
    }
  }
}

TEST(MaxMinPath, HomogeneousOverloadMatchesReference) {
  // The num_ports/port_bandwidth overload must agree with the reference
  // at uniform capacities.
  std::mt19937 rng(99);
  std::vector<MaxMinDemand> demands;
  for (int i = 0; i < 64; ++i) {
    demands.push_back({static_cast<PortIndex>(rng() % 8),
                       static_cast<PortIndex>(rng() % 8),
                       (i % 3) == 0 ? 40.0 : 0.0});
  }
  const auto via_api = maxmin_fair_rates(demands, /*num_ports=*/8,
                                         /*port_bandwidth=*/100.0);
  const std::vector<Rate> caps(8, 100.0);
  expect_bitwise_equal(run_reference(demands, caps, caps), via_api,
                       "homogeneous");
}

}  // namespace
}  // namespace saath
