#include "sched/uc_tcp.h"

namespace saath {

void UcTcpScheduler::schedule(SimTime now, std::span<CoflowState* const> active,
                              Fabric& fabric, RateAssignment& rates) {
  (void)now;
  demands_.clear();
  flows_.clear();
  owners_.clear();
  for (CoflowState* c : active) {
    for (auto& f : c->flows()) {
      if (f.finished()) continue;
      demands_.push_back({f.src(), f.dst(), /*cap=*/0});
      flows_.push_back(&f);
      owners_.push_back(c);
    }
  }

  const auto np = static_cast<std::size_t>(fabric.num_ports());
  send_caps_.resize(np);
  recv_caps_.resize(np);
  for (PortIndex p = 0; p < fabric.num_ports(); ++p) {
    send_caps_[static_cast<std::size_t>(p)] = fabric.send_capacity(p);
    recv_caps_[static_cast<std::size_t>(p)] = fabric.recv_capacity(p);
  }

  const auto fair = maxmin_fair_rates(demands_, send_caps_, recv_caps_);
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    // Progressive filling can land a hair above the port budget through
    // floating-point accumulation; shave it so Fabric's contract holds.
    const Rate r = std::min({fair[i], fabric.send_remaining(flows_[i]->src()),
                             fabric.recv_remaining(flows_[i]->dst())});
    rates.set(*owners_[i], *flows_[i], r);
    fabric.consume(flows_[i]->src(), flows_[i]->dst(), r);
  }
}

}  // namespace saath
