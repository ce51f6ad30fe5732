#include "fabric/fabric.h"

#include <algorithm>

#include "common/expect.h"

namespace saath {

Fabric::Fabric(int num_ports, Rate port_bandwidth)
    : num_ports_(num_ports),
      port_bandwidth_(port_bandwidth),
      capacity_factor_(static_cast<std::size_t>(num_ports), 1.0),
      send_remaining_(static_cast<std::size_t>(num_ports), port_bandwidth),
      recv_remaining_(static_cast<std::size_t>(num_ports), port_bandwidth),
      send_live_pos_(static_cast<std::size_t>(num_ports), -1),
      recv_live_pos_(static_cast<std::size_t>(num_ports), -1) {
  SAATH_EXPECTS(num_ports > 0);
  SAATH_EXPECTS(port_bandwidth > 0);
  reset();
}

void Fabric::live_insert(std::vector<PortIndex>& live,
                         std::vector<std::int32_t>& pos, PortIndex p) {
  pos[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(live.size());
  live.push_back(p);
}

void Fabric::live_remove(std::vector<PortIndex>& live,
                         std::vector<std::int32_t>& pos, PortIndex p) {
  const std::int32_t at = pos[static_cast<std::size_t>(p)];
  const PortIndex moved = live.back();
  live[static_cast<std::size_t>(at)] = moved;
  live.pop_back();
  pos[static_cast<std::size_t>(moved)] = at;
  pos[static_cast<std::size_t>(p)] = -1;
}

void Fabric::reset() {
  send_live_.clear();
  recv_live_.clear();
  for (PortIndex p = 0; p < num_ports_; ++p) {
    const auto i = static_cast<std::size_t>(p);
    const Rate budget = port_bandwidth_ * capacity_factor_[i];
    send_remaining_[i] = budget;
    recv_remaining_[i] = budget;
    if (budget > kRateEpsilon) {
      live_insert(send_live_, send_live_pos_, p);
      live_insert(recv_live_, recv_live_pos_, p);
    } else {
      send_live_pos_[i] = -1;
      recv_live_pos_[i] = -1;
    }
  }
}

void Fabric::set_port_capacity_factor(PortIndex p, double factor) {
  check_port(p);
  SAATH_EXPECTS(factor >= 0.0 && factor <= 1.0);
  if (capacity_factor_[static_cast<std::size_t>(p)] != factor) {
    ++capacity_version_;
  }
  capacity_factor_[static_cast<std::size_t>(p)] = factor;
}

Rate Fabric::send_capacity(PortIndex p) const {
  check_port(p);
  return port_bandwidth_ * capacity_factor_[static_cast<std::size_t>(p)];
}

Rate Fabric::recv_capacity(PortIndex p) const {
  check_port(p);
  return port_bandwidth_ * capacity_factor_[static_cast<std::size_t>(p)];
}

bool Fabric::available(PortIndex src, PortIndex dst, Rate eps) const {
  return send_remaining(src) > eps && recv_remaining(dst) > eps;
}

void Fabric::consume(PortIndex src, PortIndex dst, Rate rate) {
  check_port(src);
  check_port(dst);
  SAATH_EXPECTS(rate >= 0);
  auto& s = send_remaining_[static_cast<std::size_t>(src)];
  auto& r = recv_remaining_[static_cast<std::size_t>(dst)];
  // Allocators work in floating point; tolerate (and clamp away) rounding
  // overdraw up to a small fraction of the port bandwidth.
  const Rate slack = port_bandwidth_ * 1e-9;
  SAATH_EXPECTS(rate <= s + slack);
  SAATH_EXPECTS(rate <= r + slack);
  s = std::max(0.0, s - rate);
  r = std::max(0.0, r - rate);
  // Live-set maintenance: a port leaves the residual view the moment its
  // budget crosses the epsilon every allocator gates on. O(1), and the only
  // place besides reset() that touches the sets — budgets never grow
  // mid-epoch.
  if (s <= kRateEpsilon && send_is_live(src)) {
    live_remove(send_live_, send_live_pos_, src);
  }
  if (r <= kRateEpsilon && recv_is_live(dst)) {
    live_remove(recv_live_, recv_live_pos_, dst);
  }
}

Rate Fabric::total_allocated() const {
  // Used capacity is measured against each port's *effective* (derating-
  // scaled) budget — the nominal bandwidth would overstate usage on
  // straggler-derated ports, whose budgets start below it.
  Rate used = 0;
  for (PortIndex p = 0; p < num_ports_; ++p) {
    const auto i = static_cast<std::size_t>(p);
    used += port_bandwidth_ * capacity_factor_[i] - send_remaining_[i];
  }
  return used;
}

}  // namespace saath
