#include "fabric/maxmin.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "common/expect.h"

namespace saath {

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

}  // namespace

namespace detail {

// The full water-level solve, writing `rates` (pre-zeroed, one slot per
// demand). This is the heap (event-queue) formulation — kept as the
// bit-identity oracle for solve_waterlevel_dense, which replaces the heaps
// with dense per-round level scans the compiler can vectorize.
SAATH_HOT void solve_waterlevel_heap(std::span<const MaxMinDemand> demands,
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

// Water-level solve over dense side-major arrays. Bitwise identical to the
// heap formulation:
//  - A round's port level is mark + remaining/active computed fresh — the
//    exact expression the heap pushed after that port's last charge (the
//    int active of the heap converts exactly to the double kept here).
//  - The argmin scan runs side-major ascending with strict less-than, so
//    ties resolve to the smallest (level, side, port) — PortLater's order.
//  - Caps are pre-sorted ascending (cap, flow) with a frozen-skipping
//    cursor — the lazy cap-heap's pop order — and cap-vs-port ties prefer
//    the cap (`<=`), as before.
//  - Batch freeze order at a saturated port is bit-irrelevant: the first
//    charge at a level moves the mark there, repeat charges subtract
//    active·0, and the active decrements commute.
// The payoff: the per-round inner loops stream four dense double arrays
// (no pointer-chased buckets, no heap sifts) and auto-vectorize.
SAATH_HOT void solve_waterlevel_dense(std::span<const MaxMinDemand> demands,
                                      std::span<const Rate> send_caps,
                                      std::span<const Rate> recv_caps,
                                      std::span<Rate> rates) {
  SAATH_EXPECTS(!send_caps.empty());
  SAATH_EXPECTS(send_caps.size() == recv_caps.size());
  SAATH_EXPECTS(rates.size() == demands.size());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t num_ports = send_caps.size();
  const std::size_t n = demands.size();
  if (n == 0) return;

  // Side-major port state: entry j = side * num_ports + port.
  const std::size_t m = 2 * num_ports;
  std::vector<double> remaining(m), mark(m, 0.0), active(m, 0.0), level(m);
  for (std::size_t p = 0; p < num_ports; ++p) {
    SAATH_EXPECTS(send_caps[p] >= 0 && recv_caps[p] >= 0);
    remaining[p] = send_caps[p];
    remaining[num_ports + p] = recv_caps[p];
  }

  std::vector<char> frozen(n, 0);
  std::size_t unfrozen = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& d = demands[i];
    SAATH_EXPECTS(d.src >= 0 && static_cast<std::size_t>(d.src) < num_ports);
    SAATH_EXPECTS(d.dst >= 0 && static_cast<std::size_t>(d.dst) < num_ports);
    if (d.cap > 0 && d.cap <= 1e-12) {
      // Degenerate cap: flow cannot make progress this epoch.
      frozen[i] = 1;
      continue;
    }
    active[static_cast<std::size_t>(d.src)] += 1.0;
    active[num_ports + static_cast<std::size_t>(d.dst)] += 1.0;
    ++unfrozen;
  }

  // Caps ascending (cap, flow); the cursor skips frozen entries — the
  // lazy cap-heap's pop order.
  std::vector<std::pair<double, std::size_t>> caps;
  for (std::size_t i = 0; i < n; ++i) {
    if (!frozen[i] && demands[i].cap > 0) caps.emplace_back(demands[i].cap, i);
  }
  std::sort(caps.begin(), caps.end());
  std::size_t cap_cursor = 0;

  // Per-side CSR of flow indices by port, for the saturation batches.
  std::vector<std::uint32_t> csr_begin[2], csr_flows[2];
  for (int side = 0; side < 2; ++side) {
    csr_begin[side].assign(num_ports + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (frozen[i]) continue;
      const auto p = static_cast<std::size_t>(side == 0 ? demands[i].src
                                                        : demands[i].dst);
      ++csr_begin[side][p + 1];
    }
    for (std::size_t p = 1; p <= num_ports; ++p) {
      csr_begin[side][p] += csr_begin[side][p - 1];
    }
    csr_flows[side].resize(csr_begin[side][num_ports]);
    std::vector<std::uint32_t> fill(num_ports, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (frozen[i]) continue;
      const auto p = static_cast<std::size_t>(side == 0 ? demands[i].src
                                                        : demands[i].dst);
      csr_flows[side][csr_begin[side][p] + fill[p]++] =
          static_cast<std::uint32_t>(i);
    }
  }

  const auto charge = [&](std::size_t j, double lv) {
    remaining[j] = std::max(0.0, remaining[j] - active[j] * (lv - mark[j]));
    mark[j] = lv;
  };
  const auto freeze = [&](std::size_t i, double lv, Rate rate) {
    rates[i] = rate;
    frozen[i] = 1;
    --unfrozen;
    const auto js = static_cast<std::size_t>(demands[i].src);
    const auto jr = num_ports + static_cast<std::size_t>(demands[i].dst);
    charge(js, lv);
    active[js] -= 1.0;
    charge(jr, lv);
    active[jr] -= 1.0;
  };

  while (unfrozen > 0) {
    while (cap_cursor < caps.size() && frozen[caps[cap_cursor].second]) {
      ++cap_cursor;
    }
    const double cap_level =
        cap_cursor < caps.size() ? caps[cap_cursor].first : kInf;
    // Dense level pass + side-major first-wins argmin: the vectorizable
    // core the heaps used to hide behind pointer chases.
    for (std::size_t j = 0; j < m; ++j) {
      level[j] = active[j] > 0 ? mark[j] + remaining[j] / active[j] : kInf;
    }
    std::size_t best = m;
    double best_level = kInf;
    for (std::size_t j = 0; j < m; ++j) {
      if (level[j] < best_level) {
        best_level = level[j];
        best = j;
      }
    }
    SAATH_ENSURES(std::isfinite(best_level) || std::isfinite(cap_level));
    if (cap_level <= best_level) {
      // Flow hits its own cap first (ties resolve identically either way:
      // freezing at the cap equals freezing at the saturation level).
      const std::size_t i = caps[cap_cursor].second;
      ++cap_cursor;
      freeze(i, cap_level, demands[i].cap);
    } else {
      // Saturated: every unfrozen flow still on the port freezes at the
      // fair level.
      const int side = best < num_ports ? 0 : 1;
      const std::size_t p = side == 0 ? best : best - num_ports;
      const std::uint32_t b = csr_begin[side][p];
      const std::uint32_t e = csr_begin[side][p + 1];
      for (std::uint32_t k = b; k < e; ++k) {
        const std::size_t i = csr_flows[side][k];
        if (!frozen[i]) freeze(i, best_level, best_level);
      }
    }
  }
}

}  // namespace detail

namespace {

/// Beyond this many ports the dense per-round level scan stops paying for
/// itself against the O(log P) heap events; realistic fabrics sit far
/// below it.
constexpr std::size_t kDenseMaxPorts = 4096;

/// Dispatcher: dense formulation for realistic port counts, heap oracle
/// beyond. Both produce bitwise-identical rates (see the dense solver's
/// header comment; tests/maxmin_path_test.cc pins it).
void solve_waterlevel(std::span<const MaxMinDemand> demands,
                      std::span<const Rate> send_caps,
                      std::span<const Rate> recv_caps, std::span<Rate> rates) {
  if (send_caps.size() <= kDenseMaxPorts) {
    detail::solve_waterlevel_dense(demands, send_caps, recv_caps, rates);
  } else {
    detail::solve_waterlevel_heap(demands, send_caps, recv_caps, rates);
  }
}

}  // namespace

std::vector<Rate> maxmin_fair_rates(std::span<const MaxMinDemand> demands,
                                    std::span<const Rate> send_caps,
                                    std::span<const Rate> recv_caps) {
  std::vector<Rate> rates(demands.size(), 0.0);
  solve_waterlevel(demands, send_caps, recv_caps, rates);
  return rates;
}

std::vector<Rate> maxmin_fair_rates(std::span<const MaxMinDemand> demands,
                                    int num_ports, Rate port_bandwidth) {
  SAATH_EXPECTS(num_ports > 0);
  SAATH_EXPECTS(port_bandwidth > 0);
  const std::vector<Rate> caps(static_cast<std::size_t>(num_ports),
                               port_bandwidth);
  return maxmin_fair_rates(demands, caps, caps);
}

}  // namespace saath
