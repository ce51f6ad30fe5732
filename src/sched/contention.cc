#include "sched/contention.h"

#include "common/expect.h"

namespace saath {

std::vector<int> compute_contention(std::span<CoflowState* const> active,
                                    int num_ports) {
  SAATH_EXPECTS(num_ports > 0);
  const auto n = active.size();
  std::vector<int> contention(n, 0);
  if (n == 0) return contention;

  // Bucket active CoFlows by occupied port: [0, P) sender, [P, 2P) receiver.
  std::vector<std::vector<int>> port_members(
      static_cast<std::size_t>(2 * num_ports));
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& load : active[i]->sender_loads()) {
      if (load.unfinished_flows > 0) {
        port_members[static_cast<std::size_t>(load.port)].push_back(
            static_cast<int>(i));
      }
    }
    for (const auto& load : active[i]->receiver_loads()) {
      if (load.unfinished_flows > 0) {
        port_members[static_cast<std::size_t>(num_ports + load.port)]
            .push_back(static_cast<int>(i));
      }
    }
  }

  // Count distinct co-residents per CoFlow with a generation-stamped visit
  // array (avoids a hash set per CoFlow).
  std::vector<int> stamp(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    int count = 0;
    auto visit_port = [&](PortIndex bucket) {
      for (int j : port_members[static_cast<std::size_t>(bucket)]) {
        if (j == static_cast<int>(i)) continue;
        if (stamp[static_cast<std::size_t>(j)] != static_cast<int>(i)) {
          stamp[static_cast<std::size_t>(j)] = static_cast<int>(i);
          ++count;
        }
      }
    };
    for (const auto& load : active[i]->sender_loads()) {
      if (load.unfinished_flows > 0) visit_port(load.port);
    }
    for (const auto& load : active[i]->receiver_loads()) {
      if (load.unfinished_flows > 0) visit_port(num_ports + load.port);
    }
    contention[i] = count;
  }
  return contention;
}

}  // namespace saath
