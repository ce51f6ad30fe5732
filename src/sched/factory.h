// Scheduler factory: string names -> configured scheduler instances, so
// examples and benchmarks can select policies from the command line.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sched/queue_structure.h"
#include "sim/engine.h"
#include "sim/scheduler.h"

namespace saath {

struct SchedulerOptions {
  QueueConfig queues;
  /// Saath starvation deadline factor d.
  double deadline_factor = 2.0;
};

/// Known names: "aalo" (Saath with every mechanism off, aalo_config()),
/// "saath", "saath-an-fifo" (A/N + total-bytes + FIFO), "saath-an-pf-fifo"
/// (A/N + per-flow thresholds + FIFO), "scf", "srtf", "lwtf", "sebf",
/// "uc-tcp". Throws std::invalid_argument on unknown names.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    std::string_view name, const SchedulerOptions& options = {});

[[nodiscard]] std::vector<std::string> known_schedulers();

/// Simulation-config adjustments tied to a scheduler's semantics, applied
/// by every driver (run_schedulers, run_scenario) so a named scheduler
/// means the same emulation everywhere. Currently: UC-TCP has no
/// coordinator — its rates only change on arrivals and completions (TCP
/// re-converges immediately), so it runs with completion-triggered
/// reallocation and a coarse epoch instead of paying the 8 ms coordinator
/// cadence it does not have.
void apply_scheduler_sim_overrides(std::string_view name, SimConfig& config);

}  // namespace saath
