#include "reference/maxmin.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "common/expect.h"

namespace saath::reference {

namespace {

// Progressive filling in water-level form: every unfrozen flow has the same
// rate (the level L). A port p with k_p unfrozen flows and R_p capacity left
// at its last update saturates when L reaches mark_p + R_p/k_p; a capped
// flow freezes when L reaches its cap. Both trigger kinds live in min-heaps
// keyed by level, with lazy invalidation (a stale port entry carries an old
// version; a stale cap entry names an already-frozen flow). Each event
// freezes at least one flow and touches only the two ports of each frozen
// flow, so a round costs O(affected * log P) instead of the full-array
// scans of the classic formulation.
struct PortState {
  Rate remaining = 0;    // capacity left at level `mark`
  double mark = 0;       // water level of the last update
  int active = 0;        // unfrozen flows on this port
  std::uint32_t version = 0;
  std::vector<std::size_t> bucket;  // unfrozen flow indices, unordered
};

struct PortEvent {
  double level = 0;
  int side = 0;  // 0 = send, 1 = recv
  PortIndex port = kInvalidPort;
  std::uint32_t version = 0;
};
struct PortLater {
  bool operator()(const PortEvent& a, const PortEvent& b) const {
    if (a.level != b.level) return a.level > b.level;
    if (a.side != b.side) return a.side > b.side;
    return a.port > b.port;
  }
};

struct CapEvent {
  double level = 0;
  std::size_t flow = 0;
};
struct CapLater {
  bool operator()(const CapEvent& a, const CapEvent& b) const {
    if (a.level != b.level) return a.level > b.level;
    return a.flow > b.flow;
  }
};

// The full water-level solve, writing `rates` (pre-zeroed, one slot per
// demand), in its event-queue form.
void solve_waterlevel_heap(std::span<const MaxMinDemand> demands,
                           std::span<const Rate> send_caps,
                           std::span<const Rate> recv_caps,
                           std::span<Rate> rates) {
  SAATH_EXPECTS(!send_caps.empty());
  SAATH_EXPECTS(send_caps.size() == recv_caps.size());
  SAATH_EXPECTS(rates.size() == demands.size());
  const int num_ports = static_cast<int>(send_caps.size());

  const std::size_t n = demands.size();
  if (n == 0) return;

  std::vector<PortState> ports[2];
  ports[0].resize(send_caps.size());
  ports[1].resize(recv_caps.size());
  for (std::size_t p = 0; p < send_caps.size(); ++p) {
    SAATH_EXPECTS(send_caps[p] >= 0 && recv_caps[p] >= 0);
    ports[0][p].remaining = send_caps[p];
    ports[1][p].remaining = recv_caps[p];
  }

  std::vector<char> frozen(n, 0);
  // Index of each unfrozen flow inside its two port buckets (O(1) removal).
  std::vector<std::size_t> slot[2];
  slot[0].resize(n);
  slot[1].resize(n);
  std::size_t unfrozen = 0;

  std::priority_queue<CapEvent, std::vector<CapEvent>, CapLater> cap_events;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& d = demands[i];
    SAATH_EXPECTS(d.src >= 0 && d.src < num_ports);
    SAATH_EXPECTS(d.dst >= 0 && d.dst < num_ports);
    if (d.cap > 0 && d.cap <= 1e-12) {
      // Degenerate cap: flow cannot make progress this epoch.
      frozen[i] = 1;
      continue;
    }
    const PortIndex pp[2] = {d.src, d.dst};
    for (int side = 0; side < 2; ++side) {
      auto& p = ports[side][static_cast<std::size_t>(pp[side])];
      slot[side][i] = p.bucket.size();
      p.bucket.push_back(i);
      ++p.active;
    }
    if (d.cap > 0) cap_events.push({d.cap, i});
    ++unfrozen;
  }

  std::priority_queue<PortEvent, std::vector<PortEvent>, PortLater> port_events;
  const auto push_port = [&](int side, PortIndex port) {
    auto& p = ports[side][static_cast<std::size_t>(port)];
    if (p.active == 0) return;
    port_events.push(
        {p.mark + p.remaining / p.active, side, port, p.version});
  };
  for (int side = 0; side < 2; ++side) {
    for (PortIndex port = 0; port < num_ports; ++port) push_port(side, port);
  }

  // Charges a port for the level rising from its last update to `level`.
  const auto charge = [](PortState& p, double level) {
    p.remaining =
        std::max(0.0, p.remaining - p.active * (level - p.mark));
    p.mark = level;
  };
  // Freezes flow i at `level`; `rate` is level (port saturation) or the
  // flow's own cap. Detaches it from both port buckets and re-queues their
  // saturation events.
  const auto freeze = [&](std::size_t i, double level, Rate rate) {
    rates[i] = rate;
    frozen[i] = 1;
    --unfrozen;
    const PortIndex pp[2] = {demands[i].src, demands[i].dst};
    for (int side = 0; side < 2; ++side) {
      auto& p = ports[side][static_cast<std::size_t>(pp[side])];
      charge(p, level);
      // Swap-remove i from the bucket, fixing the moved flow's slot.
      const std::size_t s = slot[side][i];
      const std::size_t moved = p.bucket.back();
      p.bucket[s] = moved;
      slot[side][moved] = s;
      p.bucket.pop_back();
      --p.active;
      ++p.version;
      push_port(side, pp[side]);
    }
  };

  while (unfrozen > 0) {
    // Drop stale entries so both tops are live.
    while (!port_events.empty()) {
      const auto& ev = port_events.top();
      if (ports[ev.side][static_cast<std::size_t>(ev.port)].version ==
          ev.version) {
        break;
      }
      port_events.pop();
    }
    while (!cap_events.empty() && frozen[cap_events.top().flow]) {
      cap_events.pop();
    }
    const double port_level = port_events.empty()
                                  ? std::numeric_limits<double>::infinity()
                                  : port_events.top().level;
    const double cap_level = cap_events.empty()
                                 ? std::numeric_limits<double>::infinity()
                                 : cap_events.top().level;
    SAATH_ENSURES(std::isfinite(port_level) || std::isfinite(cap_level));

    if (cap_level <= port_level) {
      // Flow hits its own cap first (ties resolve identically either way:
      // freezing at the cap equals freezing at the saturation level).
      const std::size_t i = cap_events.top().flow;
      cap_events.pop();
      freeze(i, cap_level, demands[i].cap);
    } else {
      const PortEvent ev = port_events.top();
      port_events.pop();
      auto& p = ports[ev.side][static_cast<std::size_t>(ev.port)];
      // Saturated: every flow still on the port freezes at the fair level.
      while (!p.bucket.empty()) {
        freeze(p.bucket.back(), ev.level, ev.level);
      }
    }
  }
}

}  // namespace

std::vector<Rate> maxmin_fair_rates_heap(std::span<const MaxMinDemand> demands,
                                         std::span<const Rate> send_caps,
                                         std::span<const Rate> recv_caps) {
  std::vector<Rate> rates(demands.size(), 0.0);
  solve_waterlevel_heap(demands, send_caps, recv_caps, rates);
  return rates;
}

}  // namespace saath::reference
