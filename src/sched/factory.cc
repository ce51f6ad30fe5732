#include "sched/factory.h"

#include <stdexcept>

#include "sched/clairvoyant.h"
#include "sched/saath.h"
#include "sched/uc_tcp.h"

namespace saath {

std::unique_ptr<Scheduler> make_scheduler(std::string_view name,
                                          const SchedulerOptions& options) {
  if (name == "aalo") {
    return std::make_unique<SaathScheduler>(aalo_config(options.queues));
  }
  if (name == "saath" || name == "saath-an-fifo" || name == "saath-an-pf-fifo") {
    SaathConfig cfg;
    cfg.queues = options.queues;
    cfg.deadline_factor = options.deadline_factor;
    if (name == "saath-an-fifo") {
      cfg.per_flow_threshold = false;
      cfg.lcof = false;
    } else if (name == "saath-an-pf-fifo") {
      cfg.lcof = false;
    }
    return std::make_unique<SaathScheduler>(cfg);
  }
  if (name == "scf") {
    return std::make_unique<ClairvoyantScheduler>(ClairvoyantPolicy::kSCF);
  }
  if (name == "srtf") {
    return std::make_unique<ClairvoyantScheduler>(ClairvoyantPolicy::kSRTF);
  }
  if (name == "lwtf") {
    return std::make_unique<ClairvoyantScheduler>(ClairvoyantPolicy::kLWTF);
  }
  if (name == "sebf") {
    return std::make_unique<ClairvoyantScheduler>(ClairvoyantPolicy::kSEBF);
  }
  if (name == "uc-tcp") {
    return std::make_unique<UcTcpScheduler>();
  }
  throw std::invalid_argument("unknown scheduler: " + std::string(name));
}

std::vector<std::string> known_schedulers() {
  return {"aalo",  "saath", "saath-an-fifo", "saath-an-pf-fifo", "scf",
          "srtf",  "lwtf",  "sebf",          "uc-tcp"};
}

void apply_scheduler_sim_overrides(std::string_view name, SimConfig& config) {
  if (name == "uc-tcp") {
    config.reallocate_on_completion = true;
    config.delta = std::max<SimTime>(config.delta * 8, msec(50));
  }
}

}  // namespace saath
