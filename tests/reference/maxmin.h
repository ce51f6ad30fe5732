// Reference max-min solve: progressive filling in its event-queue form, a
// min-heap of port-saturation levels and one of flow caps, each with lazy
// invalidation. Production (src/fabric/maxmin.cc) replaced the heaps with
// dense per-round level scans over side-major arrays; maxmin_path_test
// checks that maxmin_fair_rates returns the same rates as this model, bit
// for bit: the same freeze order, the same float accumulation and the
// same tie-breaks.
#pragma once

#include <span>
#include <vector>

#include "common/units.h"
#include "fabric/maxmin.h"

namespace saath::reference {

/// Max-min fair rates for `demands` over one capacity per sender and per
/// receiver port, in input order; the heterogeneous maxmin_fair_rates'
/// contract.
[[nodiscard]] std::vector<Rate> maxmin_fair_rates_heap(
    std::span<const MaxMinDemand> demands, std::span<const Rate> send_caps,
    std::span<const Rate> recv_caps);

}  // namespace saath::reference
