#include "runtime/testbed.h"

#include <algorithm>

#include "common/expect.h"

namespace saath::runtime {

PipelinedScheduler::PipelinedScheduler(Scheduler& inner,
                                       const TestbedConfig& config)
    : inner_(inner), config_(config) {
  SAATH_EXPECTS(config.schedule_delay_epochs >= 0);
}

bool PipelinedScheduler::coordinator_down(SimTime now) const {
  return config_.coordinator_down_from != kNever &&
         now >= config_.coordinator_down_from &&
         (config_.coordinator_down_until == kNever ||
          now < config_.coordinator_down_until);
}

void PipelinedScheduler::apply(const Assignment& assignment,
                               std::span<CoflowState* const> active,
                               Fabric& fabric, RateAssignment& rates) const {
  for (CoflowState* c : active) {
    for (auto& f : c->flows()) {
      if (f.finished()) continue;
      const auto it = assignment.find(f.id());
      if (it == assignment.end()) continue;  // flow unknown to that schedule
      // Agents enforce yesterday's rates but can never exceed today's
      // physical capacity (a straggler may have slowed the port meanwhile).
      const Rate r = std::min({it->second, fabric.send_remaining(f.src()),
                               fabric.recv_remaining(f.dst())});
      // Same epsilon gate as every allocator: a vanishing enforced rate is
      // pure rate-version churn, never throughput.
      if (r <= Fabric::kRateEpsilon) continue;
      rates.set(*c, f, r);
      fabric.consume(f.src(), f.dst(), r);
    }
  }
}

void PipelinedScheduler::schedule(SimTime now,
                                  std::span<CoflowState* const> active,
                                  Fabric& fabric, RateAssignment& rates) {
  // 1. Coordinator computes a fresh assignment from current stats (unless
  //    it is down). The inner scheduler works against a scratch fabric and
  //    a scratch rate view so the real budgets (and the engine's touched
  //    set) stay untouched for the delivery step.
  if (!coordinator_down(now)) {
    if (!scratch_ || scratch_->num_ports() != fabric.num_ports() ||
        scratch_->port_bandwidth() != fabric.port_bandwidth()) {
      scratch_.emplace(fabric.num_ports(), fabric.port_bandwidth());
    }
    scratch_->reset();
    tentative_.begin_epoch(now);
    inner_.schedule(now, active, *scratch_, tentative_);
    Assignment fresh;
    for (const auto& touch : tentative_.touched()) {
      if (!touch.flow->finished() && touch.flow->rate() > 0) {
        fresh.emplace(touch.flow->id(), touch.flow->rate());
      }
    }
    in_flight_.push_back(std::move(fresh));
    // The tentative rates are not a schedule; discard them before delivery.
    tentative_.begin_epoch(now);
  }

  // 2. An assignment whose pipeline delay elapsed reaches the agents.
  while (static_cast<int>(in_flight_.size()) > config_.schedule_delay_epochs) {
    last_delivered_ = std::move(in_flight_.front());
    in_flight_.pop_front();
  }

  // 3. Agents enact the last delivered schedule.
  apply(last_delivered_, active, fabric, rates);
}

SimResult run_testbed(const trace::Trace& trace, Scheduler& inner,
                      const TestbedConfig& config) {
  PipelinedScheduler pipelined(inner, config);
  SimConfig sim = config.sim;
  // Completions inside an epoch must wait for the next schedule either way;
  // the testbed's whole point is that there is no idealized reallocation.
  sim.reallocate_on_completion = false;
  return simulate(trace, pipelined, sim);
}

}  // namespace saath::runtime
