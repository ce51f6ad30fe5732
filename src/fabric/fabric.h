// Datacenter fabric model.
//
// The paper's simulation assumes full bisection bandwidth: congestion happens
// only at the sender (uplink) and receiver (downlink) access ports. The
// Fabric therefore tracks one bandwidth budget per sender port and one per
// receiver port; schedulers allocate flow rates against those budgets each
// scheduling epoch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/expect.h"
#include "common/ids.h"
#include "common/units.h"

namespace saath {

class Fabric {
 public:
  /// A fabric with `num_ports` machines, each with a sender uplink and a
  /// receiver downlink of `port_bandwidth` bytes/sec.
  Fabric(int num_ports, Rate port_bandwidth);

  [[nodiscard]] int num_ports() const { return num_ports_; }
  [[nodiscard]] Rate port_bandwidth() const { return port_bandwidth_; }

  /// Resets all budgets to full (factor-scaled) capacity; called at the top
  /// of every scheduling epoch.
  void reset();

  /// Degrades (or restores) a machine's uplink+downlink to `factor` of the
  /// nominal bandwidth — the straggler model of §4.3.
  void set_port_capacity_factor(PortIndex p, double factor);

  /// Effective capacity of a port this epoch (nominal x factor).
  [[nodiscard]] Rate send_capacity(PortIndex p) const;
  [[nodiscard]] Rate recv_capacity(PortIndex p) const;

  /// Current derating factor of a port (1.0 = nominal, 0.0 = down). The
  /// checkpoint layer persists the non-nominal entries so a resumed run
  /// rebuilds the same effective capacities.
  [[nodiscard]] double port_capacity_factor(PortIndex p) const {
    return capacity_factor_[static_cast<std::size_t>(p)];
  }

  /// Inline: the admission, backfill and UC-TCP loops read these per port
  /// slot or per flow.
  [[nodiscard]] Rate send_remaining(PortIndex p) const {
    check_port(p);
    return send_remaining_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] Rate recv_remaining(PortIndex p) const {
    check_port(p);
    return recv_remaining_[static_cast<std::size_t>(p)];
  }

  /// True if both endpoints still have > eps bandwidth to give.
  [[nodiscard]] bool available(PortIndex src, PortIndex dst, Rate eps = 0) const;

  /// Consumes `rate` from src's uplink and dst's downlink. Callers must not
  /// overdraw; a tiny epsilon of floating-point slack is tolerated and
  /// clamped.
  void consume(PortIndex src, PortIndex dst, Rate rate);

  /// Sum of allocated (not remaining) bandwidth across sender uplinks.
  [[nodiscard]] Rate total_allocated() const;

  /// Bumped whenever any port's effective capacity changes (stragglers,
  /// §4.3). Consumers caching capacity-derived state compare versions
  /// instead of rescanning every port.
  [[nodiscard]] std::uint64_t capacity_version() const {
    return capacity_version_;
  }

  /// Residual-budget view: the ports whose remaining budget still exceeds
  /// kRateEpsilon, iterable without scanning the exhausted majority. A port
  /// leaves its set the moment consume() drains it past the epsilon and
  /// rejoins at the next reset() (piggybacking on the budget reseed — no
  /// extra scan); membership order is unspecified but deterministic. This
  /// is what lets the work-conservation backfill visit only the missed
  /// flows whose two endpoints are live, and stop once either set drains.
  [[nodiscard]] std::span<const PortIndex> send_live() const {
    return send_live_;
  }
  [[nodiscard]] std::span<const PortIndex> recv_live() const {
    return recv_live_;
  }
  [[nodiscard]] bool send_is_live(PortIndex p) const {
    return send_live_pos_[static_cast<std::size_t>(p)] >= 0;
  }
  [[nodiscard]] bool recv_is_live(PortIndex p) const {
    return recv_live_pos_[static_cast<std::size_t>(p)] >= 0;
  }

  /// Rounding slack used by all schedulers when comparing rates to zero.
  static constexpr Rate kRateEpsilon = 1e-6;

 private:
  void check_port(PortIndex p) const {
    SAATH_EXPECTS(p >= 0 && p < num_ports_);
  }
  void live_insert(std::vector<PortIndex>& live, std::vector<std::int32_t>& pos,
                   PortIndex p);
  void live_remove(std::vector<PortIndex>& live, std::vector<std::int32_t>& pos,
                   PortIndex p);

  int num_ports_;
  Rate port_bandwidth_;
  std::uint64_t capacity_version_ = 0;
  std::vector<double> capacity_factor_;
  std::vector<Rate> send_remaining_;
  std::vector<Rate> recv_remaining_;
  /// Live-port sets with O(1) swap-removal; pos == -1 means exhausted.
  std::vector<PortIndex> send_live_;
  std::vector<PortIndex> recv_live_;
  std::vector<std::int32_t> send_live_pos_;
  std::vector<std::int32_t> recv_live_pos_;
};

}  // namespace saath
