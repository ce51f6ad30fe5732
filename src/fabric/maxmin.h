// Max-min fair rate allocation by progressive filling.
//
// Used by the UC-TCP baseline (every flow is a TCP connection contending at
// its sender uplink and receiver downlink) and available to any scheduler
// that wants a fair intra-set split. Implemented in water-level form: the
// common level rises from event to event (a port saturating, a flow
// hitting its cap), and each round finds the next event with one dense,
// vectorizable scan over the ports instead of the classic O(F²) freeze
// scans.
#pragma once

#include <span>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace saath {

struct MaxMinDemand {
  PortIndex src = kInvalidPort;
  PortIndex dst = kInvalidPort;
  /// Optional per-flow rate cap (e.g. remaining bytes / epoch); <=0 = none.
  Rate cap = 0;
};

/// Computes max-min fair rates for `demands` over `num_ports` sender and
/// receiver ports of capacity `port_bandwidth` each. Returns one rate per
/// demand, in input order.
[[nodiscard]] std::vector<Rate> maxmin_fair_rates(
    std::span<const MaxMinDemand> demands, int num_ports, Rate port_bandwidth);

/// Heterogeneous-capacity variant (stragglers, degraded links): one capacity
/// per sender port and per receiver port.
[[nodiscard]] std::vector<Rate> maxmin_fair_rates(
    std::span<const MaxMinDemand> demands, std::span<const Rate> send_caps,
    std::span<const Rate> recv_caps);

}  // namespace saath
