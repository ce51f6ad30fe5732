// CoFlow contention (§2.4, §3 idea 3).
//
// The contention k_c of CoFlow c is the number of *other* CoFlows that have
// an unfinished flow on any port (sender or receiver) c occupies — i.e. how
// many CoFlows scheduling c would block. LWTF weighs clairvoyant duration by
// it. Saath's LCoF counts only same-queue CoFlows and reads that k_c from
// spatial::SpatialIndex.
#pragma once

#include <span>
#include <vector>

#include "coflow/coflow.h"

namespace saath {

/// k_c for every entry of `active`, in input order.
[[nodiscard]] std::vector<int> compute_contention(
    std::span<CoflowState* const> active, int num_ports);

}  // namespace saath
