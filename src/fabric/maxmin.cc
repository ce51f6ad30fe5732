#include "fabric/maxmin.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/expect.h"

namespace saath {

namespace {

// Progressive filling in water-level form: every unfrozen flow has the same
// rate (the level L). A port p with k_p unfrozen flows and R_p capacity left
// at its last update saturates when L reaches mark_p + R_p/k_p; a capped
// flow freezes when L reaches its cap. Each round freezes the flows of the
// lowest trigger. The solve runs over dense side-major arrays and is
// bitwise identical to the event-heap formulation it replaced, kept as the
// reference model in tests/reference/maxmin.h:
//  - A round's port level is mark + remaining/active computed fresh — the
//    exact expression the heap pushed after that port's last charge (the
//    int active of the heap converts exactly to the double kept here).
//  - The argmin scan runs side-major ascending with strict less-than, so
//    ties resolve to the smallest (level, side, port) — the port heap's
//    order.
//  - Caps are pre-sorted ascending (cap, flow) with a frozen-skipping
//    cursor — the lazy cap-heap's pop order — and cap-vs-port ties prefer
//    the cap (`<=`), as the heap did.
//  - Batch freeze order at a saturated port is bit-irrelevant: the first
//    charge at a level moves the mark there, repeat charges subtract
//    active·0, and the active decrements commute.
// The payoff: the per-round inner loops stream four dense double arrays
// (no pointer-chased buckets, no heap sifts) and auto-vectorize.
SAATH_HOT void solve_waterlevel(std::span<const MaxMinDemand> demands,
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
