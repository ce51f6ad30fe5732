// LINT-AS: src/sched/trimmed_sched.h
// LINT-RETENTION-ALLOW: scratch_ dropped_scratch_
//
// Seeded violation: a stale scheduler-retention exemption. The
// LINT-RETENTION-ALLOW header stands in for this file's RETENTION_ALLOWLIST
// entry; it still names `dropped_scratch_`, which the scheduler below no
// longer declares, so a later member of that name would inherit the
// exemption unaudited. The stale name is reported at the class; the
// declared `scratch_` stays exempt.
//
// Not compiled — fed to `saath_lint.py --self-test` under the LINT-AS path.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "sched/scheduler.h"

namespace saath {

class TrimmedScheduler final : public Scheduler {  // EXPECT-LINT: scheduler-retention
 public:
  [[nodiscard]] std::string name() const override { return "trimmed"; }

  using Scheduler::schedule;
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override;

 private:
  std::vector<CoflowState*> scratch_;  // allowlisted per-round scratch
};

}  // namespace saath
