#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include "coflow/coflow.h"
#include "coflow/job.h"
#include "test_util.h"

namespace saath {
namespace {

using testing::make_coflow;

CoflowSpec two_by_two() {
  return make_coflow(1, 0,
                     {{0, 2, 100}, {0, 3, 100}, {1, 2, 100}, {1, 3, 100}});
}

TEST(CoflowSpec, Aggregates) {
  const auto c = make_coflow(1, 5, {{0, 1, 100}, {0, 2, 300}});
  EXPECT_EQ(c.width(), 2);
  EXPECT_EQ(c.total_bytes(), 400);
  EXPECT_EQ(c.max_flow_bytes(), 300);
}

TEST(FlowState, LazyProgressAtRate) {
  FlowState f(FlowId{0}, FlowSpec{0, 1, 1000});
  f.set_rate(100.0, 0);  // bytes/sec
  EXPECT_DOUBLE_EQ(f.sent(seconds(3)), 300.0);
  EXPECT_DOUBLE_EQ(f.remaining(seconds(3)), 700.0);
  EXPECT_EQ(f.predicted_finish(), seconds(10));
}

TEST(FlowState, ProgressClampsAtSize) {
  FlowState f(FlowId{0}, FlowSpec{0, 1, 100});
  f.set_rate(100.0, 0);
  EXPECT_DOUBLE_EQ(f.sent(seconds(5)), 100.0);
  EXPECT_DOUBLE_EQ(f.remaining(seconds(5)), 0.0);
}

TEST(FlowState, ZeroRateNeverFinishes) {
  FlowState f(FlowId{0}, FlowSpec{0, 1, 100});
  EXPECT_DOUBLE_EQ(f.sent(seconds(1000)), 0.0);
  EXPECT_EQ(f.predicted_finish(), kNever);
}

TEST(FlowState, RateChangeFoldsProgressAndBumpsVersion) {
  FlowState f(FlowId{0}, FlowSpec{0, 1, 1000});
  f.set_rate(100.0, 0);
  const auto v1 = f.rate_version();
  f.set_rate(50.0, seconds(4));  // 400 sent; 600 left at 50 B/s -> 12 s more
  EXPECT_GT(f.rate_version(), v1);
  EXPECT_DOUBLE_EQ(f.sent(seconds(4)), 400.0);
  EXPECT_DOUBLE_EQ(f.sent(seconds(6)), 500.0);
  EXPECT_EQ(f.predicted_finish(), seconds(16));
}

TEST(FlowState, CompleteStampsTime) {
  FlowState f(FlowId{0}, FlowSpec{0, 1, 100});
  f.complete(msec(1500));
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(f.finish_time(), msec(1500));
  EXPECT_DOUBLE_EQ(f.sent(msec(1500)), 100.0);
  EXPECT_DOUBLE_EQ(f.rate(), 0.0);
}

TEST(FlowState, RestartDiscardsProgress) {
  FlowState f(FlowId{0}, FlowSpec{0, 1, 1000});
  f.set_rate(100.0, 0);
  EXPECT_DOUBLE_EQ(f.restart(seconds(4)), 400.0);
  EXPECT_DOUBLE_EQ(f.sent(seconds(4)), 0.0);
  EXPECT_DOUBLE_EQ(f.rate(), 0.0);
  EXPECT_EQ(f.predicted_finish(), kNever);
  EXPECT_FALSE(f.finished());
}

TEST(FlowState, ZeroByteFlowPredictedAtOrigin) {
  FlowState f(FlowId{0}, FlowSpec{0, 1, 0}, seconds(2));
  EXPECT_EQ(f.predicted_finish(), seconds(2));
}

TEST(CoflowState, PortLoadsCountFlows) {
  CoflowState c(two_by_two(), FlowId{0});
  ASSERT_EQ(c.sender_loads().size(), 2u);
  ASSERT_EQ(c.receiver_loads().size(), 2u);
  for (const auto& l : c.sender_loads()) EXPECT_EQ(l.unfinished_flows, 2);
  for (const auto& l : c.receiver_loads()) EXPECT_EQ(l.unfinished_flows, 2);
}

TEST(CoflowState, TotalSentTracksLazyProgress) {
  CoflowState c(two_by_two(), FlowId{0});
  for (auto& f : c.flows()) f.set_rate(10.0, 0);
  EXPECT_DOUBLE_EQ(c.total_sent(seconds(2)), 80.0);  // 4 flows x 20 bytes
  EXPECT_DOUBLE_EQ(c.max_flow_sent(seconds(2)), 20.0);
  EXPECT_DOUBLE_EQ(c.total_remaining(seconds(2)), 320.0);
}

TEST(CoflowState, FlowCompletionUpdatesLoads) {
  CoflowState c(two_by_two(), FlowId{0});
  auto& f0 = c.flows()[0];  // 0 -> 2
  f0.set_rate(100.0, 0);
  c.on_flow_complete(f0, seconds(1));
  EXPECT_EQ(c.unfinished_flows(), 3);
  EXPECT_FALSE(c.finished());
  int port0 = -1;
  for (const auto& l : c.sender_loads()) {
    if (l.port == 0) port0 = l.unfinished_flows;
  }
  EXPECT_EQ(port0, 1);
  EXPECT_EQ(c.finished_flows(), 1);
  EXPECT_DOUBLE_EQ(c.finished_length_median(), 100.0);
}

TEST(CoflowState, FinishesWhenLastFlowDone) {
  CoflowState c(make_coflow(1, seconds(1), {{0, 1, 10}, {1, 0, 10}}), FlowId{0});
  c.on_flow_complete(c.flows()[0], seconds(2));
  EXPECT_FALSE(c.finished());
  c.on_flow_complete(c.flows()[1], seconds(3));
  EXPECT_TRUE(c.finished());
  EXPECT_EQ(c.finish_time(), seconds(3));
  EXPECT_EQ(c.completion_time(), seconds(2));  // 3 - arrival(1)
}

TEST(CoflowState, BottleneckSeconds) {
  // Port 0 must push 200 bytes, port 1 only 100; at 100 B/s the bottleneck
  // is 2 seconds.
  CoflowState c(make_coflow(1, 0, {{0, 1, 100}, {0, 2, 100}}), FlowId{0});
  EXPECT_DOUBLE_EQ(c.bottleneck_seconds(100.0, 0), 2.0);
}

TEST(CoflowState, BottleneckOnReceiverSide) {
  CoflowState c(make_coflow(1, 0, {{0, 2, 100}, {1, 2, 200}}), FlowId{0});
  EXPECT_DOUBLE_EQ(c.bottleneck_seconds(100.0, 0), 3.0);  // receiver 2: 300 bytes
}

/// A mesh from every mapper to every reducer, listed reducer by reducer
/// (each reducer's flows from every mapper) or mapper by mapper.
CoflowSpec mesh(const std::vector<PortIndex>& mappers,
                const std::vector<PortIndex>& reducers, bool reducer_major) {
  CoflowSpec spec;
  spec.id = CoflowId{4};
  const std::size_t outer = reducer_major ? reducers.size() : mappers.size();
  const std::size_t inner = reducer_major ? mappers.size() : reducers.size();
  for (std::size_t a = 0; a < outer; ++a) {
    for (std::size_t b = 0; b < inner; ++b) {
      const PortIndex m = mappers[reducer_major ? b : a];
      const PortIndex r = reducers[reducer_major ? a : b];
      spec.flows.push_back({m, r, 100});
    }
  }
  return spec;
}

TEST(CoflowState, SlotWalkOrderFlags) {
  struct Case {
    const char* layout;
    CoflowSpec spec;
    bool senders;
    bool receivers;
  };
  const std::vector<PortIndex> mappers = {0, 1, 2};
  const std::vector<PortIndex> reducers = {10, 11};
  const Case cases[] = {
      {"reducer-major mesh", mesh(mappers, reducers, true), true, true},
      {"mapper-major mesh", mesh(mappers, reducers, false), true, true},
      // Receiver 10's list meets sender slots 0, 1, 0.
      {"reducer-major, mapper listed twice", mesh({0, 1, 0}, reducers, true),
       false, true},
      // Sender 0's list meets receiver slots 0, 1, 0.
      {"mapper-major, reducer listed twice", mesh(mappers, {10, 11, 10}, false),
       true, false},
      // Receiver 10's list meets sender slots 0, 1, 2, 0, 1, 2 and sender
      // 0's meets receiver slots 0, 1, 0.
      {"reducer-major, reducer listed twice",
       mesh(mappers, {10, 11, 10}, true), false, false},
      {"one flow", make_coflow(5, 0, {{3, 4, 100}}), true, true},
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(k.layout);
    CoflowState c(k.spec, FlowId{0});
    EXPECT_EQ(c.sender_walk_ordered(), k.senders);
    EXPECT_EQ(c.receiver_walk_ordered(), k.receivers);
    // Completions only shrink the slot lists: the flags never change.
    c.on_flow_complete(c.flows()[0], msec(1));
    EXPECT_EQ(c.sender_walk_ordered(), k.senders);
    EXPECT_EQ(c.receiver_walk_ordered(), k.receivers);
  }
}

TEST(CoflowState, RestartFlowsOnPort) {
  CoflowState c(two_by_two(), FlowId{0});
  for (auto& f : c.flows()) f.set_rate(10.0, 0);
  EXPECT_DOUBLE_EQ(c.total_sent(seconds(1)), 40.0);
  const int restarted = c.restart_flows_on_port(0, seconds(1));
  EXPECT_EQ(restarted, 2);  // the two flows sent from port 0
  EXPECT_DOUBLE_EQ(c.total_sent(seconds(1)), 20.0);
}

TEST(CoflowState, PortLoadLookupOnWideCoflow) {
  // A wide mesh: per-port lookups answer for every port the CoFlow
  // touches, and 0 for ports it does not.
  CoflowSpec spec;
  spec.id = CoflowId{7};
  for (PortIndex m = 20; m > 0; --m) {
    for (PortIndex r = 0; r < 5; ++r) {
      spec.flows.push_back({m, static_cast<PortIndex>(30 + r), 10});
    }
  }
  CoflowState c(spec, FlowId{0});
  for (PortIndex m = 1; m <= 20; ++m) EXPECT_EQ(c.unfinished_on_sender(m), 5);
  for (PortIndex r = 30; r < 35; ++r) EXPECT_EQ(c.unfinished_on_receiver(r), 20);
  EXPECT_EQ(c.unfinished_on_sender(0), 0);
  EXPECT_EQ(c.unfinished_on_sender(99), 0);
  EXPECT_EQ(c.unfinished_on_receiver(1), 0);
}

// 150 flows over 12 senders and 10 receivers, in an order that interleaves
// ports so no slot's flows sit contiguously in flows(); every
// sender/receiver pair in use carries two or three flows.
CoflowSpec interleaved_mesh() {
  CoflowSpec spec;
  spec.id = CoflowId{9};
  for (int k = 0; k < 150; ++k) {
    spec.flows.push_back({static_cast<PortIndex>((k * 7) % 12),
                          static_cast<PortIndex>(20 + (k * 3) % 10),
                          10 + k});
  }
  return spec;
}

std::vector<std::uint32_t> shuffled_indices(std::size_t n, unsigned seed) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::shuffle(order.begin(), order.end(), std::mt19937(seed));
  return order;
}

std::vector<std::uint32_t> as_vector(std::span<const std::uint32_t> s) {
  return {s.begin(), s.end()};
}

/// Checks every unfinished-only view against a from-scratch scan.
void expect_views_match_scan(const CoflowState& c) {
  const auto flows = c.flows();
  std::vector<std::uint32_t> unfinished;
  for (std::uint32_t i = 0; i < flows.size(); ++i) {
    if (!flows[i].finished()) unfinished.push_back(i);
  }
  for (const bool senders : {true, false}) {
    const auto loads = senders ? c.sender_loads() : c.receiver_loads();
    for (std::size_t s = 0; s < loads.size(); ++s) {
      std::vector<std::uint32_t> want;
      for (const std::uint32_t i : unfinished) {
        if ((senders ? flows[i].src() : flows[i].dst()) == loads[s].port) {
          want.push_back(i);
        }
      }
      const auto got =
          senders ? c.sender_slot_flows(s) : c.receiver_slot_flows(s);
      EXPECT_EQ(as_vector(got), want)
          << (senders ? "sender" : "receiver") << " port " << loads[s].port;
      EXPECT_EQ(got.size(),
                static_cast<std::size_t>(loads[s].unfinished_flows));
    }
  }
  const auto walk = c.walk_flows();
  EXPECT_EQ(std::adjacent_find(walk.begin(), walk.end(),
                               std::greater_equal<std::uint32_t>()),
            walk.end())
      << "walk list not strictly ascending";
  std::vector<std::uint32_t> listed_unfinished;
  for (const std::uint32_t i : walk) {
    if (!flows[i].finished()) listed_unfinished.push_back(i);
  }
  EXPECT_EQ(listed_unfinished, unfinished);
  EXPECT_LE(walk.size(), 2 * unfinished.size());
}

TEST(CoflowState, UnfinishedViewsTrackShuffledCompletions) {
  CoflowState c(interleaved_mesh(), FlowId{0});
  expect_views_match_scan(c);
  SimTime t = 0;
  for (const std::uint32_t i : shuffled_indices(c.flows().size(), 7)) {
    c.on_flow_complete(c.flows()[i], t += msec(1));
    expect_views_match_scan(c);
  }
  EXPECT_TRUE(c.finished());
  EXPECT_TRUE(c.walk_flows().empty());
}

TEST(CoflowState, RestoredStateHasIdenticalViews) {
  const CoflowSpec spec = interleaved_mesh();
  CoflowState live(spec, FlowId{0});
  const auto order = shuffled_indices(spec.flows.size(), 11);
  const std::vector<std::uint32_t> done(order.begin(), order.begin() + 110);
  SimTime t = 0;
  for (const std::uint32_t i : done) {
    live.on_flow_complete(live.flows()[i], t += msec(1));
  }
  // Checkpoint restore replays the finished flows in index order, unlike
  // the live run; the slot lists hold exactly the unfinished flows either
  // way, and the walk list covers the same unfinished flows.
  CoflowState restored(spec, FlowId{0});
  for (std::size_t i = 0; i < spec.flows.size(); ++i) {
    if (live.flows()[i].finished()) {
      restored.restore_flow_finished(i, live.flows()[i].finish_time());
    }
  }
  expect_views_match_scan(live);
  expect_views_match_scan(restored);
  for (std::size_t s = 0; s < live.sender_loads().size(); ++s) {
    EXPECT_EQ(as_vector(restored.sender_slot_flows(s)),
              as_vector(live.sender_slot_flows(s)));
  }
  for (std::size_t s = 0; s < live.receiver_loads().size(); ++s) {
    EXPECT_EQ(as_vector(restored.receiver_slot_flows(s)),
              as_vector(live.receiver_slot_flows(s)));
  }
  // Which finished flows still linger in the walk list depends only on the
  // completion sequence: a restore in the live order reproduces it exactly.
  CoflowState replayed(spec, FlowId{0});
  for (const std::uint32_t i : done) {
    replayed.restore_flow_finished(i, live.flows()[i].finish_time());
  }
  EXPECT_EQ(as_vector(replayed.walk_flows()), as_vector(live.walk_flows()));
}

TEST(CoflowState, RestartLeavesViewsUnchanged) {
  CoflowState c(interleaved_mesh(), FlowId{0});
  const auto order = shuffled_indices(c.flows().size(), 3);
  for (std::size_t k = 0; k < 60; ++k) {
    c.on_flow_complete(c.flows()[order[k]], msec(1));
  }
  for (auto& f : c.flows()) f.set_rate(10.0, msec(1));
  const auto walk_before = as_vector(c.walk_flows());
  std::vector<std::vector<std::uint32_t>> slots_before;
  for (std::size_t s = 0; s < c.sender_loads().size(); ++s) {
    slots_before.push_back(as_vector(c.sender_slot_flows(s)));
  }
  for (std::size_t s = 0; s < c.receiver_loads().size(); ++s) {
    slots_before.push_back(as_vector(c.receiver_slot_flows(s)));
  }
  EXPECT_GT(c.restart_flows_on_port(0, seconds(1)), 0);
  EXPECT_GT(c.restart_flows_on_port(25, seconds(1)), 0);
  EXPECT_EQ(as_vector(c.walk_flows()), walk_before);
  std::size_t k = 0;
  for (std::size_t s = 0; s < c.sender_loads().size(); ++s) {
    EXPECT_EQ(as_vector(c.sender_slot_flows(s)), slots_before[k++]);
  }
  for (std::size_t s = 0; s < c.receiver_loads().size(); ++s) {
    EXPECT_EQ(as_vector(c.receiver_slot_flows(s)), slots_before[k++]);
  }
  expect_views_match_scan(c);
}

/// A random spec for the slot property: `width` flows whose ports come
/// from small per-side pools (so ports repeat), some of them near the top
/// of the int32 range, and whose (src, dst) pairs repeat.
CoflowSpec random_spec(std::mt19937_64& rng, int width) {
  const auto pool = [&rng](int size) {
    std::vector<PortIndex> ports;
    std::uniform_int_distribution<PortIndex> low(0, 4 * size);
    std::uniform_int_distribution<PortIndex> high(
        std::numeric_limits<PortIndex>::max() - 4 * size,
        std::numeric_limits<PortIndex>::max() - 1);
    for (int k = 0; k < size; ++k) {
      ports.push_back(rng() % 4 == 0 ? high(rng) : low(rng));
    }
    return ports;
  };
  std::uniform_int_distribution<int> pool_size(1, std::max(1, width / 2));
  const std::vector<PortIndex> senders = pool(pool_size(rng));
  const std::vector<PortIndex> receivers = pool(pool_size(rng));
  CoflowSpec spec;
  spec.id = CoflowId{static_cast<std::int64_t>(rng() % 1000)};
  for (int i = 0; i < width; ++i) {
    if (i > 0 && rng() % 8 == 0) {
      const FlowSpec again = spec.flows[rng() % spec.flows.size()];
      spec.flows.push_back(again);  // a (src, dst) pair again
      continue;
    }
    spec.flows.push_back({senders[rng() % senders.size()],
                          receivers[rng() % receivers.size()],
                          static_cast<Bytes>(1 + rng() % 1000)});
  }
  return spec;
}

/// Brute force over the flows: each side's ports in first-appearance
/// order with their unfinished counts, each flow's slot on each side, and
/// the walk flags by their definition.
struct SlotScan {
  std::vector<PortLoad> senders;
  std::vector<PortLoad> receivers;
  std::vector<std::uint32_t> sender_slot;
  std::vector<std::uint32_t> receiver_slot;
  bool sender_walk_ordered = true;
  bool receiver_walk_ordered = true;

  explicit SlotScan(const CoflowState& c) {
    const auto number = [](std::vector<PortLoad>& loads, PortIndex port,
                           bool unfinished) {
      for (std::uint32_t s = 0; s < loads.size(); ++s) {
        if (loads[s].port == port) {
          loads[s].unfinished_flows += unfinished ? 1 : 0;
          return s;
        }
      }
      loads.push_back({port, unfinished ? 1 : 0});
      return static_cast<std::uint32_t>(loads.size() - 1);
    };
    for (const FlowState& f : c.flows()) {
      sender_slot.push_back(number(senders, f.src(), !f.finished()));
      receiver_slot.push_back(number(receivers, f.dst(), !f.finished()));
    }
    // Along every list of one side, in flow order, the other side's slot
    // never decreases.
    const auto ordered = [this](const std::vector<std::uint32_t>& list_side,
                                const std::vector<std::uint32_t>& walked,
                                std::size_t lists) {
      for (std::uint32_t s = 0; s < lists; ++s) {
        std::uint32_t prev = 0;
        for (std::size_t i = 0; i < list_side.size(); ++i) {
          if (list_side[i] != s) continue;
          if (walked[i] < prev) return false;
          prev = walked[i];
        }
      }
      return true;
    };
    sender_walk_ordered = ordered(receiver_slot, sender_slot, receivers.size());
    receiver_walk_ordered = ordered(sender_slot, receiver_slot, senders.size());
  }
};

void expect_loads_eq(std::span<const PortLoad> got,
                     const std::vector<PortLoad>& want, const char* side) {
  ASSERT_EQ(got.size(), want.size()) << side;
  for (std::size_t s = 0; s < want.size(); ++s) {
    EXPECT_EQ(got[s].port, want[s].port) << side << " slot " << s;
    EXPECT_EQ(got[s].unfinished_flows, want[s].unfinished_flows)
        << side << " slot " << s;
  }
}

TEST(CoflowState, SlotsMatchBruteForceOnRandomSpecs) {
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<int> narrow(1, 40);
  std::uniform_int_distribution<int> wide(41, 2000);
  for (int trial = 0; trial < 48; ++trial) {
    const int width = trial % 4 == 3 ? wide(rng) : narrow(rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", width " +
                 std::to_string(width));
    CoflowState c(random_spec(rng, width), FlowId{0});
    const SlotScan scan(c);
    expect_loads_eq(c.sender_loads(), scan.senders, "senders");
    expect_loads_eq(c.receiver_loads(), scan.receivers, "receivers");
    for (std::size_t i = 0; i < c.flows().size(); ++i) {
      ASSERT_EQ(c.flows()[i].sender_slot(), scan.sender_slot[i]) << i;
      ASSERT_EQ(c.flows()[i].receiver_slot(), scan.receiver_slot[i]) << i;
    }
    EXPECT_EQ(c.sender_walk_ordered(), scan.sender_walk_ordered);
    EXPECT_EQ(c.receiver_walk_ordered(), scan.receiver_walk_ordered);
    expect_views_match_scan(c);

    // Completions in random order: recount at a few points along the way.
    const auto order = shuffled_indices(c.flows().size(),
                                        static_cast<unsigned>(trial));
    const std::size_t step = std::max<std::size_t>(1, order.size() / 5);
    SimTime t = 0;
    for (std::size_t k = 0; k < order.size(); ++k) {
      c.on_flow_complete(c.flows()[order[k]], t += msec(1));
      if ((k + 1) % step != 0 && k + 1 != order.size()) continue;
      const SlotScan recount(c);
      expect_loads_eq(c.sender_loads(), recount.senders, "senders");
      expect_loads_eq(c.receiver_loads(), recount.receivers, "receivers");
      expect_views_match_scan(c);
      EXPECT_EQ(c.finished_flows(), static_cast<int>(k + 1));
    }
    EXPECT_TRUE(c.finished());
  }
}

// The §4.3 median is read off the finished flows' sizes, in any
// completion order: the same multiset gives the same double.
TEST(CoflowState, FinishedLengthMedianMatchesFinishedSizes) {
  std::mt19937_64 rng(77);
  CoflowState c(random_spec(rng, 301), FlowId{0});
  std::vector<double> finished;
  SimTime t = 0;
  for (const std::uint32_t i : shuffled_indices(c.flows().size(), 5)) {
    c.on_flow_complete(c.flows()[i], t += msec(1));
    finished.push_back(c.flows()[i].size());
    std::vector<double> sorted = finished;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t mid = sorted.size() / 2;
    const double want = sorted.size() % 2 == 1
                            ? sorted[mid]
                            : (sorted[mid - 1] + sorted[mid]) / 2.0;
    ASSERT_EQ(c.finished_length_median(), want) << finished.size();
  }
}

TEST(JobSpec, ValidateRejectsForwardDeps) {
  JobSpec job;
  job.id = JobId{1};
  job.stages.push_back({{{0, 1, 10}}, {1}});  // dep on a later stage
  job.stages.push_back({{{1, 2, 10}}, {}});
  EXPECT_THROW(job.validate(), std::invalid_argument);
}

TEST(JobSpec, ValidateRejectsEmptyStage) {
  JobSpec job;
  job.id = JobId{1};
  job.stages.push_back({{}, {}});
  EXPECT_THROW(job.validate(), std::invalid_argument);
}

TEST(JobTracker, LinearChainReleasesInOrder) {
  JobSpec job;
  job.id = JobId{1};
  job.stages.push_back({{{0, 1, 10}}, {}});
  job.stages.push_back({{{1, 2, 10}}, {0}});
  job.stages.push_back({{{2, 3, 10}}, {1}});
  JobTracker tracker(job);

  auto ready = tracker.ready_stages();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 0);
  tracker.mark_released(0);
  EXPECT_TRUE(tracker.ready_stages().empty());

  ready = tracker.mark_finished(0, seconds(1));
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 1);
  tracker.mark_released(1);
  ready = tracker.mark_finished(1, seconds(2));
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 2);
  tracker.mark_released(2);
  tracker.mark_finished(2, seconds(3));
  EXPECT_TRUE(tracker.all_finished());
  EXPECT_EQ(tracker.finish_time(), seconds(3));
}

TEST(JobTracker, DiamondDagWaitsForBothParents) {
  JobSpec job;
  job.id = JobId{2};
  job.stages.push_back({{{0, 1, 10}}, {}});        // 0
  job.stages.push_back({{{1, 2, 10}}, {}});        // 1
  job.stages.push_back({{{2, 3, 10}}, {0, 1}});    // 2 needs both
  JobTracker tracker(job);

  auto ready = tracker.ready_stages();
  EXPECT_EQ(ready.size(), 2u);
  tracker.mark_released(0);
  tracker.mark_released(1);
  EXPECT_TRUE(tracker.mark_finished(0, seconds(1)).empty());
  ready = tracker.mark_finished(1, seconds(2));
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 2);
}

TEST(JobTracker, MakeCoflowStampsLinkage) {
  JobSpec job;
  job.id = JobId{3};
  job.arrival = seconds(1);
  job.stages.push_back({{{0, 1, 10}, {0, 2, 20}}, {}});
  JobTracker tracker(job);
  const auto spec = tracker.make_coflow(0, CoflowId{9}, seconds(4));
  EXPECT_EQ(spec.id, CoflowId{9});
  EXPECT_EQ(spec.arrival, seconds(4));
  EXPECT_EQ(spec.job, JobId{3});
  EXPECT_EQ(spec.stage, 0);
  EXPECT_EQ(spec.width(), 2);
}

}  // namespace
}  // namespace saath
