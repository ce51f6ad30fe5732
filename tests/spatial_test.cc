// SpatialIndex — port occupancy and k_c — must agree with the reference's
// batch k_c (tests/reference/) after EVERY event — arrival, flow
// completion, queue (group) move, CoFlow removal — not just at steady
// state. The OccupancyIndex cases cover its occupancy half. Slots come from
// the caller, as Saath's arrival hook assigns them.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "reference/reference.h"
#include "spatial/contention.h"
#include "test_util.h"
#include "trace/synth.h"

namespace saath {
namespace {

using testing::make_coflow;

/// Oracle contention for `active`, at `slots`, grouped by the index's own
/// group map.
std::vector<int> oracle_for(const spatial::SpatialIndex& index,
                            std::span<CoflowState* const> active,
                            std::span<const Slot> slots, int num_ports) {
  std::vector<int> group(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    group[i] = index.group_of(slots[i]);
  }
  return reference::batch_contention(active, num_ports, group);
}

void expect_matches_oracle(const spatial::SpatialIndex& index,
                           std::span<CoflowState* const> active,
                           std::span<const Slot> slots, int num_ports,
                           const char* when) {
  ASSERT_EQ(index.size(), active.size()) << when;
  const auto oracle = oracle_for(index, active, slots, num_ports);
  for (std::size_t i = 0; i < active.size(); ++i) {
    EXPECT_EQ(index.contention(slots[i]), oracle[i])
        << when << ": coflow " << active[i]->id().value;
  }
}

TEST(OccupancyIndex, TracksSlotMembership) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 1, 10}, {0, 2, 10}}));
  set.add(make_coflow(1, 0, {{0, 2, 10}}));

  spatial::SpatialIndex occ;
  const Slot s0 = 0;
  const Slot s1 = 1;
  EXPECT_TRUE(occ.add_coflow(s0, set.at(0), 0));
  EXPECT_TRUE(occ.add_coflow(s1, set.at(1), 0));
  EXPECT_EQ(occ.size(), 2u);
  EXPECT_TRUE(occ.contains(s0));
  EXPECT_FALSE(occ.add_coflow(s0, set.at(0), 0));  // already indexed
  EXPECT_EQ(occ.members(spatial::sender_bucket(0)).size(), 2u);
  EXPECT_EQ(occ.members(spatial::receiver_bucket(1)).size(), 1u);
  EXPECT_EQ(occ.members(spatial::receiver_bucket(2)).size(), 2u);
  EXPECT_EQ(occ.occupied_buckets(s0), 3u);  // sender 0, recv 1, recv 2

  // First 0->1 completion frees receiver 1 but not sender 0 (another flow).
  auto& c0 = set.at(0);
  c0.on_flow_complete(c0.flows()[0], seconds(1));
  const auto delta = occ.on_flow_complete(s0, c0, c0.flows()[0]);
  EXPECT_FALSE(delta.sender_freed);
  EXPECT_TRUE(delta.receiver_freed);
  EXPECT_EQ(occ.members(spatial::sender_bucket(0)).size(), 2u);
  EXPECT_TRUE(occ.members(spatial::receiver_bucket(1)).empty());

  // Second completion frees the rest; removal then touches no buckets.
  c0.on_flow_complete(c0.flows()[1], seconds(2));
  const auto delta2 = occ.on_flow_complete(s0, c0, c0.flows()[1]);
  EXPECT_TRUE(delta2.sender_freed);
  EXPECT_TRUE(delta2.receiver_freed);
  EXPECT_EQ(occ.occupied_buckets(s0), 0u);
  EXPECT_EQ(occ.remove(s0), 0u);
  EXPECT_EQ(occ.size(), 1u);
  EXPECT_FALSE(occ.contains(s0));

  // The freed slot takes the next arrival, from that CoFlow's own loads.
  set.add(make_coflow(2, 0, {{3, 4, 10}}));
  EXPECT_TRUE(occ.add_coflow(s0, set.at(2), 0));
  EXPECT_TRUE(occ.contains(s0));
  EXPECT_EQ(occ.occupied_buckets(s0), 2u);
  EXPECT_EQ(occ.members(spatial::sender_bucket(3)).size(), 1u);
}

TEST(OccupancyIndex, DeltaAgreesWithCoflowState) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 1, 10}, {0, 1, 20}, {2, 1, 30}}));
  auto& c = set.at(0);
  spatial::SpatialIndex occ;
  const Slot slot = 5;
  ASSERT_TRUE(occ.add_coflow(slot, c, 0));
  for (int i = 0; i < 3; ++i) {
    auto& f = c.flows()[static_cast<std::size_t>(i)];
    const PortIndex src = f.src();
    const PortIndex dst = f.dst();
    const OccupancyDelta state_delta = c.on_flow_complete(f, seconds(i + 1));
    const OccupancyDelta index_delta = occ.on_flow_complete(slot, c, f);
    EXPECT_EQ(state_delta.sender_freed, index_delta.sender_freed);
    EXPECT_EQ(state_delta.receiver_freed, index_delta.receiver_freed);
    EXPECT_EQ(c.unfinished_on_sender(src) == 0,
              state_delta.sender_freed);
    EXPECT_EQ(c.unfinished_on_receiver(dst) == 0,
              state_delta.receiver_freed);
  }
}

TEST(SpatialIndex, ContentionAcrossLifecycle) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 1, 10}, {2, 3, 10}}));  // ports 0,2 / 1,3
  set.add(make_coflow(1, 0, {{0, 3, 10}}));              // shares 0 and 3
  set.add(make_coflow(2, 0, {{4, 5, 10}}));              // disjoint

  // Slots need not follow ids (nor be dense).
  const Slot s0 = 4;
  const Slot s1 = 0;
  const Slot s2 = 2;
  spatial::SpatialIndex index;
  index.add_coflow(s0, set.at(0), 0);
  index.add_coflow(s1, set.at(1), 0);
  index.add_coflow(s2, set.at(2), 0);
  EXPECT_EQ(index.contention(s0), 1);
  EXPECT_EQ(index.contention(s1), 1);
  EXPECT_EQ(index.contention(s2), 0);

  // Moving C1 to another queue removes it from C0's competitor set.
  index.set_group(s1, 3);
  EXPECT_EQ(index.contention(s0), 0);
  EXPECT_EQ(index.contention(s1), 0);
  index.set_group(s1, 0);
  EXPECT_EQ(index.contention(s0), 1);

  // C0's 0->1 flow finishes: they still share receiver... no — C0 keeps
  // sender 2 / receiver 3, C1 holds sender 0 / receiver 3: overlap remains.
  auto& c0 = set.at(0);
  c0.on_flow_complete(c0.flows()[0], seconds(1));
  index.on_flow_complete(s0, c0, c0.flows()[0]);
  EXPECT_EQ(index.contention(s0), 1);
  c0.on_flow_complete(c0.flows()[1], seconds(2));
  index.on_flow_complete(s0, c0, c0.flows()[1]);
  EXPECT_EQ(index.contention(s0), 0);
  EXPECT_EQ(index.contention(s1), 0);

  index.remove(s0);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.contention(s1), 0);
}

TEST(SpatialIndex, StaleOccupancyDetectedByVersion) {
  testing::StateSet set;
  set.add(make_coflow(0, 0, {{0, 1, 10}, {2, 3, 10}}));
  const Slot slot = 0;
  spatial::SpatialIndex index;
  index.add_coflow(slot, set.at(0), 0);
  EXPECT_TRUE(index.in_sync(slot, set.at(0)));
  // Completion applied to the state only — the index must notice.
  auto& c = set.at(0);
  c.on_flow_complete(c.flows()[0], seconds(1));
  EXPECT_FALSE(index.in_sync(slot, set.at(0)));
  // A later completion the index does see must not hide the missed one.
  c.on_flow_complete(c.flows()[1], seconds(2));
  index.on_flow_complete(slot, c, c.flows()[1]);
  EXPECT_TRUE(index.contains(slot));
  EXPECT_FALSE(index.in_sync(slot, c));
  // Re-adding rebuilds the entry from the CoFlow's own loads.
  EXPECT_TRUE(index.contains(slot));
  index.remove(slot);
  EXPECT_TRUE(index.add_coflow(slot, c, 0));
  EXPECT_TRUE(index.in_sync(slot, c));
  EXPECT_EQ(index.occupied_buckets(slot), 0u);
}

/// Randomized event-stream equivalence: every mutation the scheduler can
/// feed the index (arrival, flow completion, group move, removal, and the
/// re-admission of a removed unfinished CoFlow), in random order over a
/// synthetic workload, checked against the oracle after each step.
TEST(SpatialIndex, RandomEventStreamMatchesOracle) {
  struct Case {
    std::uint64_t seed;
    int coflows;
    int steps;
    /// Op weights: arrival, group move, removal, re-admission, completion.
    std::array<int, 5> weight;
    /// Live-population cap; an arrival or re-admission at the cap removes
    /// instead.
    std::size_t max_live;
    /// Port drift across arrivals. -1: CoFlow i's ports shift up by
    /// coflows - 1 - i, so each arrival's port range starts one below the
    /// previous one's and ports are first seen in descending order. +1:
    /// they shift up by i, so ports are first seen in ascending order and
    /// the bucket vector keeps growing under live members. 0: no shift.
    int port_drift;
  };
  const Case cases[] = {
      {7, 30, 400, {2, 2, 1, 0, 5}, 64, 0},
      {21, 30, 400, {2, 2, 1, 0, 5}, 64, 0},
      {63, 30, 400, {2, 2, 1, 0, 5}, 64, 0},
      // Quarantine-style re-admission: removed unfinished CoFlows come back
      // later as the same state, usually on a different slot.
      {5, 60, 600, {2, 2, 2, 2, 4}, 64, 0},
      // Churn at a small live cap, so every slot is recycled many times.
      {11, 400, 1500, {4, 1, 3, 1, 2}, 8, 0},
      {42, 40, 500, {2, 2, 1, 1, 4}, 64, -1},
      {43, 40, 500, {2, 2, 1, 1, 4}, 64, 1},
  };
  constexpr int kPorts = 12;
  for (const Case& k : cases) {
    SCOPED_TRACE(::testing::Message() << "seed " << k.seed);
    auto trace = trace::synth_small_trace(kPorts, k.coflows, k.seed);
    const int num_ports = k.port_drift != 0 ? kPorts + k.coflows : kPorts;
    if (k.port_drift != 0) {
      for (std::size_t i = 0; i < trace.coflows.size(); ++i) {
        const auto up = static_cast<PortIndex>(i);
        const PortIndex shift =
            k.port_drift > 0 ? up : static_cast<PortIndex>(k.coflows - 1) - up;
        for (FlowSpec& f : trace.coflows[i].flows) {
          f.src += shift;
          f.dst += shift;
        }
      }
    }
    Rng rng(k.seed * 977 + 13);

    spatial::SpatialIndex index;
    std::vector<std::unique_ptr<CoflowState>> states;
    /// Indexed CoFlows and their slots, position for position.
    std::vector<CoflowState*> tracked;
    std::vector<Slot> slots;
    /// Removed while unfinished, with the slot each held.
    std::vector<std::pair<CoflowState*, Slot>> parked;
    /// Released slots, reused last-released first.
    std::vector<Slot> free_slots;
    std::vector<int> slot_uses;
    int moved_readmissions = 0;
    std::size_t next_spec = 0;
    std::int64_t next_flow = 0;

    const auto index_add = [&](CoflowState* c) {
      Slot slot = static_cast<Slot>(slot_uses.size());
      if (free_slots.empty()) {
        slot_uses.push_back(0);
      } else {
        slot = free_slots.back();
        free_slots.pop_back();
      }
      ASSERT_TRUE(
          index.add_coflow(slot, *c, static_cast<int>(rng.uniform_int(0, 3))));
      tracked.push_back(c);
      slots.push_back(slot);
      ++slot_uses[slot];
    };
    const auto add_next = [&] {
      const auto& spec = trace.coflows[next_spec++];
      states.push_back(std::make_unique<CoflowState>(spec, FlowId{next_flow}));
      next_flow += spec.width();
      index_add(states.back().get());
    };
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    const auto remove_one = [&] {
      const std::size_t pos = pick(tracked.size());
      CoflowState* c = tracked[pos];
      const Slot slot = slots[pos];
      ASSERT_TRUE(index.contains(slot));
      index.remove(slot);
      EXPECT_FALSE(index.contains(slot));
      free_slots.push_back(slot);
      tracked.erase(tracked.begin() + static_cast<long>(pos));
      slots.erase(slots.begin() + static_cast<long>(pos));
      if (!c->finished() && k.weight[3] > 0) parked.emplace_back(c, slot);
    };
    // Seed with a handful so events have neighbors to hit.
    for (int i = 0; i < 5; ++i) add_next();

    int total_weight = 0;
    for (const int w : k.weight) total_weight += w;
    for (int step = 0; step < k.steps; ++step) {
      int roll = static_cast<int>(rng.uniform_int(0, total_weight - 1));
      int op = 0;
      while (roll >= k.weight[static_cast<std::size_t>(op)]) {
        roll -= k.weight[static_cast<std::size_t>(op)];
        ++op;
      }
      if ((op == 0 || op == 3) && tracked.size() >= k.max_live) {
        remove_one();
      } else if (op == 0 && next_spec < trace.coflows.size()) {
        add_next();
      } else if (op == 1 && !tracked.empty()) {
        index.set_group(slots[pick(tracked.size())],
                        static_cast<int>(rng.uniform_int(0, 3)));
      } else if (op == 2 && !tracked.empty()) {
        remove_one();
      } else if (op == 3 && !parked.empty()) {
        const std::size_t pos = pick(parked.size());
        const auto [c, old_slot] = parked[pos];
        parked.erase(parked.begin() + static_cast<long>(pos));
        index_add(c);
        if (slots.back() != old_slot) ++moved_readmissions;
      } else if (!tracked.empty()) {
        // Complete a random unfinished flow of a random tracked CoFlow.
        const std::size_t pos = pick(tracked.size());
        CoflowState* c = tracked[pos];
        std::vector<FlowState*> open;
        for (auto& f : c->flows()) {
          if (!f.finished()) open.push_back(&f);
        }
        if (open.empty()) continue;
        FlowState* f = open[pick(open.size())];
        c->on_flow_complete(*f, msec(step + 1));
        EXPECT_TRUE(index.contains(slots[pos]));
        index.on_flow_complete(slots[pos], *c, *f);
        EXPECT_TRUE(index.in_sync(slots[pos], *c));
      }
      expect_matches_oracle(index, tracked, slots, num_ports, "after event");
      if (::testing::Test::HasFailure()) return;
    }
    // The stream exercised what its case is for.
    if (k.weight[3] > 0) {
      EXPECT_GT(moved_readmissions, 0);
    }
    if (k.max_live <= 8) {
      EXPECT_EQ(slot_uses.size(), k.max_live);
      for (const int uses : slot_uses) EXPECT_GE(uses, 5);
    }
  }
}

}  // namespace
}  // namespace saath
