// saath_sim: the scenario driver. Every named workload scenario — trace
// replays, streaming churn, multi-tenant merges, failure storms, reactive
// DAGs — runs through the same binary, so benches, examples, and CI smoke
// jobs all exercise identical setups.
//
//   $ ./saath_sim --list
//   $ ./saath_sim --scenario=steady-churn
//   $ ./saath_sim --scenario=failure-storm --scheduler=aalo
//   $ ./saath_sim --scenario=steady-churn --set coflows=100000 --stream
//   $ ./saath_sim --scenario=steady-churn --repeat=8 --seed-stride=7 --jobs=4
//
//   # Capture/replay + crash recovery (all digest-gated in CI):
//   $ ./saath_sim --scenario=steady-churn --record=run.journal --digest
//   $ ./saath_sim --replay=run.journal --digest
//   $ ./saath_sim --scenario=steady-churn --record=run.journal
//         --checkpoint=run.ckpt --checkpoint-at=40 --digest
//   $ ./saath_sim --replay=run.journal --resume=run.ckpt --digest
//   $ ./saath_sim --scenario=steady-churn --inject --digest
//
// --set key=value overrides scenario knobs; unknown keys and malformed
// values exit non-zero naming the offender. --stream drops per-CoFlow
// record materialization and aggregates CCTs online through a CctAggregator
// sink (the O(live)-memory path). --repeat=K runs K seed-shifted
// repetitions (seed = base + rep * --seed-stride), and --jobs=N runs the
// resulting cells concurrently — each on its own Engine/Fabric/RNG, so
// output is identical for any N.
//
// The replay flags switch to a direct single-run path (no --repeat/--jobs):
// --record journals the consumed event stream; --replay re-feeds a journal
// (config comes from the journal, scheduler from --scheduler); --resume
// restores an engine checkpoint and replays the journal suffix; --inject
// wraps the source in a FaultySource (implies tolerant input); --digest
// prints the canonical result digest CI compares across runs.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "replay/checkpoint.h"
#include "replay/fault.h"
#include "replay/journal.h"
#include "sched/factory.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/source.h"
#include "sim/engine.h"
#include "workload/scenario.h"
#include "workload/sink.h"

using namespace saath;

namespace {

int list_scenarios(bool names_only) {
  for (const auto& info : workload::known_scenarios()) {
    if (names_only) {
      std::printf("%s\n", info.name.c_str());
    } else {
      std::printf("%-20s %s\n", info.name.c_str(), info.description.c_str());
    }
  }
  return 0;
}

struct DirectOptions {
  std::string scenario;
  std::string scheduler;
  workload::ScenarioParams params;
  std::string record_path;
  std::string replay_path;
  std::string resume_path;
  std::string checkpoint_path;
  long long checkpoint_every = 0;
  long long checkpoint_at = 0;
  bool inject = false;
  replay::FaultPlan plan;
  bool digest = false;

  [[nodiscard]] bool active() const {
    return !record_path.empty() || !replay_path.empty() ||
           !resume_path.empty() || !checkpoint_path.empty() || inject ||
           digest;
  }
};

void report_run(const char* label, const SimResult& result,
                const EngineStats& stats, int rounds,
                const workload::CctAggregator& agg) {
  std::printf("%s scheduler '%s' source '%s'\n", label,
              result.scheduler.c_str(), result.trace.c_str());
  std::printf(
      "  coflows %lld  makespan %.3fs  mean CCT %.3fs  ~P50 %.3fs  ~P90 "
      "%.3fs\n",
      static_cast<long long>(agg.count()), to_seconds(agg.makespan()),
      agg.mean_cct_seconds(), agg.percentile_cct_seconds(50),
      agg.percentile_cct_seconds(90));
  std::printf("  epochs %lld  rounds %d  peak live %lld  source events %lld\n",
              static_cast<long long>(stats.epochs), rounds,
              static_cast<long long>(stats.peak_live_coflows),
              static_cast<long long>(stats.source_events));
  if (stats.rejected_events > 0 || stats.quarantine_events > 0 ||
      !stats.abandoned_coflow_ids.empty()) {
    std::printf(
        "  rejected events %lld  quarantines %lld  requeues %lld  abandoned "
        "%zu\n",
        static_cast<long long>(stats.rejected_events),
        static_cast<long long>(stats.quarantine_events),
        static_cast<long long>(stats.requeue_admissions),
        stats.abandoned_coflow_ids.size());
  }
}

/// The single-run path behind the replay/robustness flags. Unlike the
/// campaign path it owns the source/engine wiring so it can interpose the
/// fault and recording layers: inner scenario source -> FaultySource
/// (--inject) -> RecordingSource (--record, outermost: it journals exactly
/// what the engine consumed, faults included).
int run_direct(const DirectOptions& opt) {
  std::ifstream journal_in;
  std::ofstream journal_out;
  std::shared_ptr<workload::WorkloadSource> source;
  SimConfig cfg;
  std::string sched_name = opt.scheduler;
  EngineSnapshot snap;
  const bool resuming = !opt.resume_path.empty();

  if (!opt.replay_path.empty()) {
    journal_in.open(opt.replay_path);
    if (!journal_in) {
      std::fprintf(stderr, "cannot open journal '%s'\n",
                   opt.replay_path.c_str());
      return 2;
    }
    auto rs = std::make_shared<replay::ReplaySource>(journal_in);
    cfg = rs->recorded_config();
    if (resuming) {
      std::ifstream ckpt(opt.resume_path);
      if (!ckpt) {
        std::fprintf(stderr, "cannot open checkpoint '%s'\n",
                     opt.resume_path.c_str());
        return 2;
      }
      snap = replay::load_checkpoint(ckpt);
      // The journal prefix up to the snapshot instant was already consumed
      // by the interrupted run; position past it before the engine peeks.
      rs->skip(snap.source_events_consumed);
      if (sched_name.empty()) sched_name = snap.scheduler;
    }
    source = rs;
  } else {
    workload::ScenarioSetup setup =
        workload::make_scenario(opt.scenario, opt.params);
    if (sched_name.empty()) sched_name = setup.default_scheduler;
    cfg = setup.config;
    apply_scheduler_sim_overrides(sched_name, cfg);
    if (opt.params.get_int("records", 1) == 0) cfg.record_results = false;
    cfg.max_stall_epochs = static_cast<int>(
        opt.params.get_int("stall_epochs", cfg.max_stall_epochs));
    cfg.max_requeue_attempts = static_cast<int>(
        opt.params.get_int("requeue", cfg.max_requeue_attempts));
    if (opt.params.get_int("strict_input", 1) == 0) cfg.strict_input = false;
    const std::int64_t seed = opt.params.get_int("seed", 0);
    if (const auto unknown = opt.params.unconsumed(); !unknown.empty()) {
      std::string listed;
      for (const auto& key : unknown) {
        if (!listed.empty()) listed += ", ";
        listed += key;
      }
      std::fprintf(stderr,
                   "scenario '%s' does not understand parameter(s): %s\n",
                   opt.scenario.c_str(), listed.c_str());
      return 2;
    }
    source = setup.source;
    if (opt.inject) {
      // Malformed/duplicate events must degrade into typed faults, not
      // SAATH_EXPECTS aborts.
      cfg.strict_input = false;
      source = std::make_shared<replay::FaultySource>(source, opt.plan);
    }
    if (!opt.record_path.empty()) {
      journal_out.open(opt.record_path, std::ios::trunc);
      if (!journal_out) {
        std::fprintf(stderr, "cannot open journal '%s' for writing\n",
                     opt.record_path.c_str());
        return 2;
      }
      source = std::make_shared<replay::RecordingSource>(source, journal_out,
                                                         cfg, seed);
    }
  }
  if (sched_name.empty()) sched_name = "saath";

  auto sched = make_scheduler(sched_name);
  Engine engine(source, *sched, cfg);
  workload::CctAggregator agg;
  engine.set_result_sink(&agg);

  if (!opt.checkpoint_path.empty()) {
    const std::string path = opt.checkpoint_path;
    const long long every =
        opt.checkpoint_at > 0 ? opt.checkpoint_at : opt.checkpoint_every;
    const bool once = opt.checkpoint_at > 0;
    auto written = std::make_shared<bool>(false);
    engine.set_snapshot_hook(
        every, [path, once, written](const EngineSnapshot& s) {
          if (once && *written) return;
          std::ofstream out(path, std::ios::trunc);
          if (!out) {
            std::fprintf(stderr, "cannot write checkpoint '%s'\n",
                         path.c_str());
            return;
          }
          replay::save_checkpoint(out, s);
          *written = true;
        });
  }
  if (resuming) {
    engine.restore_snapshot(snap);
    std::printf("resumed at epoch %lld (%lld events already consumed)\n",
                static_cast<long long>(snap.epochs),
                static_cast<long long>(snap.source_events_consumed));
  }

  const SimResult result = engine.run();
  report_run(opt.replay_path.empty() ? "run" : "replay", result,
             engine.stats(), engine.scheduling_rounds(), agg);
  if (opt.digest) {
    std::printf("digest %s\n", replay::result_digest_hex(result).c_str());
  }
  if (agg.count() == 0) {
    std::fprintf(stderr, "scenario produced no coflows\n");
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------- service modes

struct ServiceModeOptions {
  bool serve = false;
  bool client = false;
  std::string socket;   // --serve listen address
  std::string connect;  // --client: drive an external daemon instead
  int ports = 0;        // --serve without --scenario
  int expect_clients = 1;
  int split = 1;
  long long throttle_us = 0;
  bool compare = false;
  std::string journal;
  bool serve_resume = false;
};

/// The scenario-param config tweaks run_direct applies, shared by the
/// service modes so the daemon's SimConfig and the offline oracle's are
/// built through the identical pipeline (digest parity).
void apply_scenario_param_overrides(SimConfig& cfg,
                                    workload::ScenarioParams& params) {
  if (params.get_int("records", 1) == 0) cfg.record_results = false;
  cfg.max_stall_epochs =
      static_cast<int>(params.get_int("stall_epochs", cfg.max_stall_epochs));
  cfg.max_requeue_attempts =
      static_cast<int>(params.get_int("requeue", cfg.max_requeue_attempts));
  if (params.get_int("strict_input", 1) == 0) cfg.strict_input = false;
}

struct OracleRun {
  std::string digest_hex;
  SimTime makespan = 0;
  std::int64_t coflows = 0;
};

/// Offline in-process run of the scenario — the digest the service-driven
/// run must reproduce bit-for-bit.
OracleRun run_oracle(const std::string& scenario, std::string sched_name,
                     workload::ScenarioParams params) {
  workload::ScenarioSetup setup = workload::make_scenario(scenario, params);
  if (sched_name.empty()) sched_name = setup.default_scheduler;
  SimConfig cfg = setup.config;
  apply_scheduler_sim_overrides(sched_name, cfg);
  apply_scenario_param_overrides(cfg, params);
  auto sched = make_scheduler(sched_name);
  Engine engine(setup.source, *sched, cfg);
  workload::CctAggregator agg;
  engine.set_result_sink(&agg);
  const SimResult result = engine.run();
  return {replay::result_digest_hex(result), result.makespan, agg.count()};
}

int run_serve(const std::string& scenario, const std::string& scheduler,
              workload::ScenarioParams params, const ServiceModeOptions& svc,
              const std::string& checkpoint_path, long long checkpoint_every,
              bool digest) {
  service::DaemonConfig cfg;
  cfg.address = svc.socket.empty() ? cfg.address : svc.socket;
  cfg.scheduler = scheduler;
  cfg.expect_clients = svc.expect_clients;
  cfg.journal_path = svc.journal;
  cfg.checkpoint_path = checkpoint_path;
  cfg.checkpoint_every_epochs = checkpoint_every;
  cfg.resume = svc.serve_resume;
  if (!scenario.empty()) {
    // Scenario parity: the daemon adopts the scenario's SimConfig, fabric
    // width, and workload name, so a client driving that scenario's script
    // reproduces the offline run's digest.
    workload::ScenarioSetup setup = workload::make_scenario(scenario, params);
    cfg.sim = setup.config;
    apply_scenario_param_overrides(cfg.sim, params);
    cfg.num_ports = setup.source->num_ports();
    cfg.workload_name = setup.source->name();
    cfg.seed = params.get_int("seed", 0);
    if (cfg.scheduler.empty()) cfg.scheduler = setup.default_scheduler;
  } else {
    cfg.num_ports = svc.ports;
  }
  if (cfg.scheduler.empty()) cfg.scheduler = "saath";
  if (cfg.num_ports <= 0) {
    std::fprintf(stderr, "--serve needs --scenario=<name> or --ports=N\n");
    return 2;
  }
  service::ServiceDaemon daemon(cfg);
  daemon.start();
  std::printf("saath_serve listening on %s (scheduler %s, %d ports, "
              "expecting %d client%s)%s\n",
              daemon.address().c_str(), cfg.scheduler.c_str(), cfg.num_ports,
              cfg.expect_clients, cfg.expect_clients == 1 ? "" : "s",
              cfg.resume ? " [resumed]" : "");
  std::fflush(stdout);
  const service::ServiceReport rep = daemon.wait();
  if (!rep.ok) {
    std::fprintf(stderr, "service run failed: %s\n", rep.error.c_str());
    return 1;
  }
  std::printf("service run drained: %lld coflows  makespan %.3fs\n",
              static_cast<long long>(rep.completions),
              to_seconds(rep.makespan));
  if (digest) std::printf("digest %s\n", rep.digest_hex.c_str());
  return 0;
}

int run_client_mode(const std::string& scenario, const std::string& scheduler,
                    const workload::ScenarioParams& params,
                    const ServiceModeOptions& svc,
                    const std::string& checkpoint_path,
                    long long checkpoint_every, bool digest) {
  if (scenario.empty()) {
    std::fprintf(stderr, "--client needs --scenario=<name>\n");
    return 2;
  }
  const int split = svc.split < 1 ? 1 : svc.split;
  workload::ScenarioParams drive_params = params;
  workload::ScenarioSetup setup =
      workload::make_scenario(scenario, drive_params);
  const std::string sched_name =
      scheduler.empty() ? setup.default_scheduler : scheduler;
  SimConfig cfg = setup.config;
  apply_scenario_param_overrides(cfg, drive_params);
  const std::string workload_name = setup.source->name();
  const int ports = setup.source->num_ports();

  std::unique_ptr<service::ServiceDaemon> daemon;
  std::string address = svc.connect;
  if (address.empty()) {
    service::DaemonConfig dc;
    dc.address =
        "unix:/tmp/saath_sim_client_" + std::to_string(::getpid()) + ".sock";
    dc.num_ports = ports;
    dc.scheduler = sched_name;
    dc.sim = cfg;
    dc.expect_clients = split;
    dc.journal_path = svc.journal;
    dc.checkpoint_path = checkpoint_path;
    dc.checkpoint_every_epochs = checkpoint_every;
    dc.workload_name = workload_name;
    dc.seed = drive_params.get_int("seed", 0);
    daemon = std::make_unique<service::ServiceDaemon>(dc);
    daemon->start();
    address = daemon->address();
    std::printf("spawned in-process daemon on %s\n", address.c_str());
  }

  std::string service_digest;
  SimTime service_makespan = 0;
  if (split == 1) {
    service::ClientOptions co;
    co.address = address;
    co.client_name = "c0";
    co.reactive = true;  // uniform: script sources just drain their DONEs
    co.throttle_us = svc.throttle_us;
    service::ServiceClient cl(co);
    if (!cl.connect(workload_name, ports) || !cl.drive(*setup.source) ||
        !cl.finish()) {
      std::fprintf(stderr, "client error: %s\n", cl.report().error.c_str());
      return 1;
    }
    const service::ClientReport& rep = cl.report();
    std::printf("client c0: sent %lld  accepted %lld  rejected %lld  "
                "dones %lld\n",
                static_cast<long long>(rep.sent),
                static_cast<long long>(rep.accepted),
                static_cast<long long>(rep.rejected),
                static_cast<long long>(rep.dones));
    for (const std::string& rej : rep.reject_lines) {
      std::fprintf(stderr, "  %s\n", rej.c_str());
    }
    service_digest = rep.digest_hex;
    service_makespan = rep.makespan;
  } else {
    // Split drive: materialize the script and partition it — arrivals
    // round-robin by index, every gate/dynamics event on client 0 (reactive
    // scenarios cannot be split; drive those with --split=1).
    std::vector<std::vector<workload::WorkloadEvent>> parts(
        static_cast<std::size_t>(split));
    std::int64_t arrivals = 0;
    while (setup.source->peek_next_time() != kNever) {
      workload::WorkloadEvent ev = setup.source->next();
      if (ev.kind == workload::WorkloadEvent::Kind::kArrival) {
        parts[static_cast<std::size_t>(arrivals++ % split)].push_back(
            std::move(ev));
      } else {
        parts[0].push_back(std::move(ev));
      }
    }
    std::vector<service::ClientReport> reports(
        static_cast<std::size_t>(split));
    std::vector<std::thread> threads;
    for (int i = 0; i < split; ++i) {
      threads.emplace_back([&, i] {
        service::ClientOptions co;
        co.address = address;
        char cname[16];
        std::snprintf(cname, sizeof cname, "c%d", i);
        co.client_name = cname;
        co.reactive = true;
        co.throttle_us = svc.throttle_us;
        service::ServiceClient cl(co);
        service::VectorSource vs(workload_name, ports,
                                 std::move(parts[static_cast<std::size_t>(i)]));
        (void)(cl.connect(workload_name, ports) && cl.drive(vs) &&
               cl.finish());
        reports[static_cast<std::size_t>(i)] = cl.report();
      });
    }
    for (std::thread& t : threads) t.join();
    for (int i = 0; i < split; ++i) {
      const service::ClientReport& rep =
          reports[static_cast<std::size_t>(i)];
      if (!rep.ok) {
        std::fprintf(stderr, "client c%d error: %s\n", i, rep.error.c_str());
        return 1;
      }
      std::printf("client c%d: sent %lld  accepted %lld  rejected %lld  "
                  "dones %lld\n",
                  i, static_cast<long long>(rep.sent),
                  static_cast<long long>(rep.accepted),
                  static_cast<long long>(rep.rejected),
                  static_cast<long long>(rep.dones));
      service_digest = rep.digest_hex;
      service_makespan = rep.makespan;
    }
  }

  if (daemon) {
    const service::ServiceReport rep = daemon->wait();
    if (!rep.ok) {
      std::fprintf(stderr, "daemon run failed: %s\n", rep.error.c_str());
      return 1;
    }
    service_digest = rep.digest_hex;  // authoritative
    service_makespan = rep.makespan;
  }
  std::printf("service makespan %.3fs\n", to_seconds(service_makespan));
  if (digest) std::printf("digest %s\n", service_digest.c_str());

  if (daemon || svc.compare) {
    const OracleRun oracle = run_oracle(scenario, scheduler, params);
    if (oracle.digest_hex != service_digest) {
      std::fprintf(stderr,
                   "DIGEST MISMATCH: offline %s vs service %s\n",
                   oracle.digest_hex.c_str(), service_digest.c_str());
      return 1;
    }
    std::printf("digest match: offline == service (%s, %lld coflows)\n",
                oracle.digest_hex.c_str(),
                static_cast<long long>(oracle.coflows));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  DirectOptions direct;
  ServiceModeOptions svc;
  std::string scenario;
  std::string scheduler;
  bool stream = false;
  int jobs = 1;
  int repeat = 1;
  long long seed_stride = 1;
  workload::ScenarioParams params;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* flag) -> std::string {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return {};
    };
    std::string v;  // --flag=value payload of the branch that matched
    if (arg == "--list") return list_scenarios(false);
    if (arg == "--list-names") return list_scenarios(true);
    if (arg == "--stream") {
      stream = true;
    } else if (arg == "--digest") {
      direct.digest = true;
    } else if (arg == "--inject") {
      // A moderate default fault mix; the --inject-* knobs refine it.
      direct.inject = true;
      if (direct.plan.duplicate_p == 0) direct.plan.duplicate_p = 0.05;
      if (direct.plan.malformed_p == 0) direct.plan.malformed_p = 0.05;
      if (direct.plan.storm_every == 0) {
        direct.plan.storm_every = 50;
        direct.plan.storm_size = 8;
      }
    } else if (!(v = value_of("--inject-dup")).empty()) {
      direct.inject = true;
      direct.plan.duplicate_p = std::atof(v.c_str());
    } else if (!(v = value_of("--inject-malformed")).empty()) {
      direct.inject = true;
      direct.plan.malformed_p = std::atof(v.c_str());
    } else if (!(v = value_of("--inject-storm")).empty()) {
      direct.inject = true;
      direct.plan.storm_every = std::atoi(v.c_str());
      if (direct.plan.storm_size == 0) direct.plan.storm_size = 8;
    } else if (!(v = value_of("--inject-flaps")).empty()) {
      direct.inject = true;
      direct.plan.flap_cycles = std::atoi(v.c_str());
    } else if (!(v = value_of("--inject-seed")).empty()) {
      direct.plan.seed = static_cast<std::uint64_t>(std::atoll(v.c_str()));
    } else if (!(v = value_of("--record")).empty()) {
      direct.record_path = v;
    } else if (!(v = value_of("--replay")).empty()) {
      direct.replay_path = v;
    } else if (!(v = value_of("--resume")).empty()) {
      direct.resume_path = v;
    } else if (arg == "--resume") {
      svc.serve_resume = true;  // bare form: --serve restart mode
    } else if (arg == "--serve") {
      svc.serve = true;
    } else if (arg == "--client") {
      svc.client = true;
    } else if (arg == "--compare") {
      svc.compare = true;
    } else if (!(v = value_of("--socket")).empty()) {
      svc.socket = v;
    } else if (!(v = value_of("--connect")).empty()) {
      svc.connect = v;
    } else if (!(v = value_of("--ports")).empty()) {
      svc.ports = std::atoi(v.c_str());
    } else if (!(v = value_of("--expect-clients")).empty()) {
      svc.expect_clients = std::atoi(v.c_str());
    } else if (!(v = value_of("--split")).empty()) {
      svc.split = std::atoi(v.c_str());
    } else if (!(v = value_of("--throttle-us")).empty()) {
      svc.throttle_us = std::atoll(v.c_str());
    } else if (!(v = value_of("--journal")).empty()) {
      svc.journal = v;
    } else if (!(v = value_of("--checkpoint")).empty()) {
      direct.checkpoint_path = v;
    } else if (!(v = value_of("--checkpoint-every")).empty()) {
      direct.checkpoint_every = std::atoll(v.c_str());
    } else if (!(v = value_of("--checkpoint-at")).empty()) {
      direct.checkpoint_at = std::atoll(v.c_str());
    } else if (!(v = value_of("--scenario")).empty()) {
      scenario = v;
    } else if (!(v = value_of("--scheduler")).empty()) {
      scheduler = v;
    } else if (!(v = value_of("--jobs")).empty()) {
      jobs = std::atoi(v.c_str());
    } else if (!(v = value_of("--repeat")).empty()) {
      repeat = std::atoi(v.c_str());
    } else if (!(v = value_of("--seed-stride")).empty()) {
      seed_stride = std::atoll(v.c_str());
    } else if (arg == "--set" && i + 1 < argc) {
      const std::string kv = argv[++i];
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--set expects key=value, got '%s'\n", kv.c_str());
        return 2;
      }
      params.set(kv.substr(0, eq), kv.substr(eq + 1));
    } else {
      std::fprintf(stderr,
                   "usage: saath_sim --scenario=<name> [--scheduler=<name>] "
                   "[--set key=value]... [--stream] [--jobs=N] [--repeat=K] "
                   "[--seed-stride=S]\n"
                   "       [--record=FILE] [--replay=FILE] [--resume=CKPT] "
                   "[--checkpoint=FILE --checkpoint-every=N|--checkpoint-at=E]"
                   "\n"
                   "       [--inject] [--inject-dup=P] [--inject-malformed=P] "
                   "[--inject-storm=N] [--inject-flaps=N] [--inject-seed=S] "
                   "[--digest]\n"
                   "       | --serve [--socket=ADDR] [--ports=N] "
                   "[--expect-clients=N] [--journal=FILE] "
                   "[--checkpoint=FILE --checkpoint-every=N] [--resume]\n"
                   "       | --client --scenario=<name> [--connect=ADDR] "
                   "[--split=N] [--throttle-us=N] [--compare]\n"
                   "       | --list | --list-names\n");
      return 2;
    }
  }

  if (svc.serve || svc.client) {
    if (svc.serve && svc.client) {
      std::fprintf(stderr, "--serve and --client are exclusive\n");
      return 2;
    }
    try {
      return svc.serve
                 ? run_serve(scenario, scheduler, params, svc,
                             direct.checkpoint_path, direct.checkpoint_every,
                             direct.digest)
                 : run_client_mode(scenario, scheduler, params, svc,
                                   direct.checkpoint_path,
                                   direct.checkpoint_every, direct.digest);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  if (direct.active()) {
    if (direct.replay_path.empty() && scenario.empty()) {
      std::fprintf(stderr, "replay flags need --scenario or --replay\n");
      return 2;
    }
    if (!direct.resume_path.empty() && direct.replay_path.empty()) {
      std::fprintf(stderr, "--resume needs the run's --replay journal\n");
      return 2;
    }
    if (!direct.checkpoint_path.empty() && direct.checkpoint_every <= 0 &&
        direct.checkpoint_at <= 0) {
      std::fprintf(stderr,
                   "--checkpoint needs --checkpoint-every=N or "
                   "--checkpoint-at=E\n");
      return 2;
    }
    if (stream || jobs != 1 || repeat != 1) {
      std::fprintf(stderr,
                   "replay flags run a single cell; drop --stream/--jobs/"
                   "--repeat\n");
      return 2;
    }
    direct.scenario = scenario;
    direct.scheduler = scheduler;
    direct.params = params;
    try {
      return run_direct(direct);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  if (scenario.empty()) {
    std::fprintf(stderr, "missing --scenario=<name>; --list shows them\n");
    return 2;
  }
  if (jobs < 1 || repeat < 1) {
    std::fprintf(stderr, "--jobs and --repeat must be >= 1\n");
    return 2;
  }

  if (stream) params.set("records", "0");
  // One campaign cell per repetition. A single repetition without an
  // explicit seed keeps the scenario's default; repetitions are
  // seed-shifted from the base so cells differ deterministically.
  std::vector<workload::CampaignCell> cells;
  for (int rep = 0; rep < repeat; ++rep) {
    workload::CampaignCell cell;
    cell.scenario = scenario;
    cell.scheduler = scheduler;
    cell.params = params;
    if (repeat > 1) {
      const long long base = params.get_int("seed", 1);
      cell.params.set("seed", std::to_string(base + rep * seed_stride));
    }
    cells.push_back(std::move(cell));
  }

  std::vector<workload::CampaignOutcome> outcomes;
  try {
    outcomes = workload::run_campaign(cells, jobs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // Report strictly in cell order: byte-identical output for any --jobs.
  bool any_empty = false;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const workload::ScenarioRunResult& run = outcomes[i].run;
    const workload::CctAggregator& agg = outcomes[i].agg;
    if (repeat > 1) {
      std::printf("[rep %zu seed %s] ", i,
                  cells[i].params.get_string("seed", "-").c_str());
    }
    std::printf("scenario '%s' scheduler '%s' source '%s'\n", scenario.c_str(),
                run.result.scheduler.c_str(), run.result.trace.c_str());
    std::printf(
        "  coflows %lld  makespan %.3fs  mean CCT %.3fs  ~P50 %.3fs  ~P90 "
        "%.3fs\n",
        static_cast<long long>(agg.count()), to_seconds(agg.makespan()),
        agg.mean_cct_seconds(), agg.percentile_cct_seconds(50),
        agg.percentile_cct_seconds(90));
    std::printf(
        "  epochs %lld  rounds %d  peak live %lld  source events %lld\n",
        static_cast<long long>(run.stats.epochs), run.rounds,
        static_cast<long long>(run.stats.peak_live_coflows),
        static_cast<long long>(run.stats.source_events));
    if (agg.count() == 0) any_empty = true;
  }
  if (any_empty) {
    std::fprintf(stderr, "scenario produced no coflows\n");
    return 1;
  }
  return 0;
}
