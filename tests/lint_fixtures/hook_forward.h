// LINT-AS: src/runtime/bad_decorator.h
//
// Seeded violations: Scheduler decorators that hold another scheduler but
// do not override every lifecycle hook. The hooks are part of the
// Scheduler contract (src/sim/scheduler.h); a hook the base class's no-op
// swallows never reaches the wrapped scheduler, and Saath aborts its next
// round.
//
// Not compiled — fed to `saath_lint.py --self-test` under the LINT-AS path.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "sched/saath.h"
#include "sim/scheduler.h"

namespace saath {

// Forwards three hooks; quarantine falls through to the base no-op.
class ThreeHookDecorator final : public Scheduler {  // EXPECT-LINT: hook-forward
 public:
  explicit ThreeHookDecorator(Scheduler& inner) : inner_(inner) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  using Scheduler::schedule;
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override {
    inner_.schedule(now, active, fabric, rates);
  }
  void on_coflow_arrival(CoflowState& c, SimTime now) override {
    inner_.on_coflow_arrival(c, now);
  }
  void on_flow_complete(CoflowState& c, FlowState& f, SimTime now) override {
    inner_.on_flow_complete(c, f, now);
  }
  void on_coflow_complete(CoflowState& c, SimTime now) override {
    inner_.on_coflow_complete(c, now);
  }

 private:
  Scheduler& inner_;
};

// Owns its inner scheduler through a smart pointer and forwards nothing.
class OwningDecorator final : public Scheduler {  // EXPECT-LINT: hook-forward
 public:
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  using Scheduler::schedule;
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override {
    inner_->schedule(now, active, fabric, rates);
  }

 private:
  std::unique_ptr<Scheduler> inner_;
};

// Holds a concrete scheduler by value, brace-initialized.
class ValueDecorator final : public Scheduler {  // EXPECT-LINT: hook-forward
 public:
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  using Scheduler::schedule;
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override {
    inner_.schedule(now, active, fabric, rates);
  }

 private:
  SaathScheduler inner_{SaathConfig{}};
};

// Forwards all four: not flagged.
class FullDecorator final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  using Scheduler::schedule;
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override {
    inner_->schedule(now, active, fabric, rates);
  }
  void on_coflow_arrival(CoflowState& c, SimTime now) override {
    inner_->on_coflow_arrival(c, now);
  }
  void on_flow_complete(CoflowState& c, FlowState& f, SimTime now) override {
    inner_->on_flow_complete(c, f, now);
  }
  void on_coflow_complete(CoflowState& c, SimTime now) override {
    inner_->on_coflow_complete(c, now);
  }
  void on_coflow_quarantined(CoflowState& c, SimTime now) override {
    inner_->on_coflow_quarantined(c, now);
  }

 private:
  Scheduler* inner_ = nullptr;
};

// Wraps no scheduler (SchedulerDelta only shares the prefix): not flagged.
class DeltaKeeper final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "delta-keeper"; }
  using Scheduler::schedule;
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override;

 private:
  SchedulerDelta last_delta_;
};

}  // namespace saath
