// saath_serve: long-lived coordinator daemon owning one Engine.
//
// Thread shape:
//   engine thread      — builds the source chain and runs Engine::run();
//                        DONE lines are written from here via ServiceSink.
//   acceptor thread    — Listener::accept loop, one reader thread per
//                        connection.
//   reader threads     — frame + parse requests, push into IngressQueue,
//                        answer WELCOME / REJ / FINOK / STAT from their own
//                        thread (per-connection write mutex arbitrates
//                        against engine-thread DONEs).
//
// Crash safety composes PR 7 verbatim: the live ingress is wrapped in a
// RecordingSource (journal flush BEFORE the engine sees an event) and the
// engine checkpoint hook persists EngineSnapshots (tmp+rename, atomic).
// Restart = load checkpoint, truncate any torn journal tail, replay the
// journal suffix past the checkpoint cursor, then continue journaling the
// live ingress in append mode — while the rebuilt ingress watermark state
// deterministically rejects the already-consumed prefix of re-driven
// client scripts. The digest of an interrupted-and-resumed run equals the
// uninterrupted run's bit-for-bit (the CI service-smoke gate).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "replay/journal.h"
#include "service/ingress.h"
#include "service/sink.h"
#include "service/transport.h"
#include "sim/engine.h"
#include "sim/snapshot.h"

namespace saath::service {

struct DaemonConfig {
  /// Listen address: "unix:/path" or "tcp:PORT" (0 = ephemeral).
  std::string address = "unix:/tmp/saath_serve.sock";
  int num_ports = 0;
  std::string scheduler = "saath";
  /// Engine template. The daemon forces strict_input = false (rejects are
  /// typed at ingress AND tolerated in-engine).
  SimConfig sim;
  /// Sessions that must connect and FIN before the run drains; 0 = serve
  /// until shutdown().
  int expect_clients = 0;
  /// Empty = no journaling (no crash safety, maximum ingest throughput).
  std::string journal_path;
  std::string checkpoint_path;
  std::int64_t checkpoint_every_epochs = 0;
  /// Restart from journal_path (+ checkpoint_path when present/intact).
  bool resume = false;
  std::int64_t seed = 0;
  /// Workload name for the digest/journal header; empty = adopt from the
  /// first HELLO (a later HELLO naming a different workload is rejected).
  std::string workload_name;
};

/// Final outcome of a drained run.
struct ServiceReport {
  bool ok = false;
  std::string error;  // engine-thread exception, when !ok
  std::uint64_t digest = 0;
  std::string digest_hex;
  SimTime makespan = 0;
  std::int64_t completions = 0;
  EngineStats engine_stats;
};

class ServiceDaemon {
 public:
  explicit ServiceDaemon(DaemonConfig cfg);
  ~ServiceDaemon();

  /// Binds the listener and spawns the engine + acceptor threads. Throws
  /// std::runtime_error on bind/resume failures.
  void start();
  /// Blocks until the run drains (all expected clients FIN'd and every
  /// CoFlow resolved), then returns the final report. Idempotent.
  [[nodiscard]] ServiceReport wait();
  /// Administrative drain: closes ingress (engine finishes what it has),
  /// then tears down the transport once the run ends.
  void shutdown();

  /// Resolved listen address (read after start(); "tcp:0" becomes real).
  [[nodiscard]] std::string address() const;
  /// The ServiceStats block as STAT lines (no ENDSTATS terminator).
  [[nodiscard]] std::string stats_text() const;

 private:
  struct ClientConn {
    Connection conn;
    std::mutex write_mu;
    std::uint32_t sid = 0;  // 0 until HELLO
    std::uint64_t key = 0;  // conns_ map key
  };

  void acceptor_loop();
  void reader_loop(std::shared_ptr<ClientConn> client);
  void engine_main();
  void handle_frame(ClientConn& client, const std::string& frame,
                    std::int64_t& accepted, std::int64_t& rejected);
  [[nodiscard]] bool write_to(ClientConn& client, const std::string& line);
  [[nodiscard]] bool write_to_session(std::uint32_t sid,
                                      const std::string& line);
  void broadcast(const std::string& line);
  void drop_connection(const std::shared_ptr<ClientConn>& client);
  /// Blocks the engine thread until the workload name is known (config,
  /// journal header on resume, or first HELLO).
  [[nodiscard]] std::string wait_workload_name();
  /// Resume prep, run synchronously in start() before the listener opens:
  /// truncates a torn journal tail, rebuilds the ingress reject state,
  /// positions the replay prefix past the checkpoint cursor, opens the
  /// append journal. Throws std::runtime_error on an unusable journal.
  void prepare_resume();
  /// Journal recovery scan: truncates a torn tail, reads the journal
  /// through replay::ReplaySource, rebuilds the ingress reject state, and
  /// returns the total (complete) event count.
  [[nodiscard]] std::int64_t recover_journal(std::string& recorded_name);

  DaemonConfig cfg_;
  std::shared_ptr<IngressQueue> ingress_;
  std::unique_ptr<ServiceSink> sink_;
  std::unique_ptr<Listener> listener_;

  mutable std::mutex mu_;
  std::condition_variable name_cv_;
  std::string adopted_name_;
  bool stopping_ = false;
  std::unordered_map<std::uint64_t, std::shared_ptr<ClientConn>> conns_;
  std::unordered_map<std::uint32_t, std::uint64_t> session_conn_;
  std::uint64_t next_conn_key_ = 1;

  std::thread engine_thread_;
  std::thread acceptor_thread_;
  std::vector<std::thread> reader_threads_;
  std::mutex readers_mu_;

  mutable std::mutex report_mu_;
  std::condition_variable report_cv_;
  bool finished_ = false;
  ServiceReport report_;

  /// Engine telemetry pointer, valid while the engine thread runs (atomics
  /// inside; read-only from STATS).
  std::atomic<const LiveTelemetry*> telemetry_{nullptr};
  std::chrono::steady_clock::time_point started_at_;

  std::ofstream journal_out_;
  std::ifstream journal_in_;
  /// Resume state staged by prepare_resume() for the engine thread.
  std::shared_ptr<replay::ReplaySource> resume_replay_;
  std::optional<EngineSnapshot> resume_snap_;
};

}  // namespace saath::service
