#include "service/daemon.h"

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/expect.h"
#include "replay/checkpoint.h"
#include "sched/factory.h"
#include "service/protocol.h"
#include "service/source.h"

namespace saath::service {

namespace {

/// Nulls the daemon's telemetry pointer before the Engine it points into
/// is destroyed — including on the exception path, where unwinding would
/// otherwise leave a dangling pointer visible to STATS readers.
struct TelemetryGuard {
  std::atomic<const LiveTelemetry*>& slot;
  ~TelemetryGuard() { slot.store(nullptr); }
};

}  // namespace

ServiceDaemon::ServiceDaemon(DaemonConfig cfg) : cfg_(std::move(cfg)) {
  SAATH_EXPECTS(cfg_.num_ports > 0);
  IngressOptions opts;
  opts.num_ports = cfg_.num_ports;
  opts.expected_clients = cfg_.expect_clients;
  ingress_ = std::make_shared<IngressQueue>(opts);
  sink_ = std::make_unique<ServiceSink>(
      [this](std::uint32_t sid, const std::string& line) {
        // Count the DONE against the session before it can reach the
        // client: a REACTIVE session enters the reacting state, so the
        // engine blocks at the next loop top until the client answers
        // (events-then-IDLE carrying a current dones count, or FIN) —
        // reactive feedback stays synchronous with the epoch loop.
        ingress_->note_done(sid);
        return write_to_session(sid, line);
      });
}

ServiceDaemon::~ServiceDaemon() {
  shutdown();
  if (listener_) listener_->close();
  if (acceptor_thread_.joinable()) acceptor_thread_.join();
  // Wake readers blocked in recv before joining them.
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, client] : conns_) {
      (void)key;
      client->conn.shutdown_both();
    }
  }
  {
    const std::lock_guard<std::mutex> lock(readers_mu_);
    for (std::thread& t : reader_threads_) {
      if (t.joinable()) t.join();
    }
  }
  if (engine_thread_.joinable()) engine_thread_.join();
}

void ServiceDaemon::start() {
  if (cfg_.resume) {
    prepare_resume();
  } else if (!cfg_.workload_name.empty()) {
    const std::lock_guard<std::mutex> lock(mu_);
    adopted_name_ = cfg_.workload_name;
  }
  listener_ = make_listener(cfg_.address);
  started_at_ = std::chrono::steady_clock::now();
  engine_thread_ = std::thread([this] { engine_main(); });
  acceptor_thread_ = std::thread([this] { acceptor_loop(); });
}

void ServiceDaemon::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  name_cv_.notify_all();
  ingress_->close_all();
}

std::string ServiceDaemon::address() const {
  SAATH_EXPECTS(listener_ != nullptr);
  return listener_->address();
}

ServiceReport ServiceDaemon::wait() {
  std::unique_lock<std::mutex> lock(report_mu_);
  report_cv_.wait(lock, [this] { return finished_; });
  return report_;
}

// ------------------------------------------------------------------ resume

std::int64_t ServiceDaemon::recover_journal(std::string& recorded_name) {
  std::ifstream in(cfg_.journal_path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("service: cannot open journal '" +
                             cfg_.journal_path + "' for resume");
  }
  const std::string all((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  in.close();
  // A kill mid-write can tear the final line; everything before the last
  // newline is a valid journal prefix (each line was flushed before the
  // engine saw its event), so truncate the torn tail before appending.
  const auto last_nl = all.rfind('\n');
  if (last_nl == std::string::npos) {
    throw std::runtime_error("service: journal '" + cfg_.journal_path +
                             "' holds no complete line");
  }
  if (last_nl + 1 != all.size()) {
    std::filesystem::resize_file(cfg_.journal_path, last_nl + 1);
  }
  std::ifstream journal_in(cfg_.journal_path, std::ios::binary);
  replay::ReplaySource journal(journal_in);
  if (journal.num_ports() != cfg_.num_ports) {
    throw std::runtime_error(
        "service: journal fabric has " + std::to_string(journal.num_ports()) +
        " ports, daemon configured for " + std::to_string(cfg_.num_ports));
  }
  recorded_name = journal.name();
  std::int64_t events = 0;
  SimTime watermark = 0;
  std::vector<std::int64_t> admitted;
  std::vector<std::string> watermark_lines;
  while (journal.peek_next_time() != kNever) {
    const workload::WorkloadEvent ev = journal.next();
    ++events;
    if (ev.time > watermark) {
      watermark = ev.time;
      watermark_lines.clear();
    }
    // The formatted line is the form IngressQueue::validate compares.
    if (ev.time == watermark) {
      watermark_lines.push_back(replay::format_event_line(ev));
    }
    if (ev.kind == workload::WorkloadEvent::Kind::kArrival) {
      admitted.push_back(ev.coflow.id.value);
    }
  }
  ingress_->adopt_restart_state(watermark, std::move(admitted),
                                std::move(watermark_lines));
  return events;
}

void ServiceDaemon::prepare_resume() {
  std::string recorded_name;
  const std::int64_t events = recover_journal(recorded_name);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    adopted_name_ = recorded_name;
  }
  name_cv_.notify_all();
  journal_in_.open(cfg_.journal_path);
  resume_replay_ = std::make_shared<replay::ReplaySource>(journal_in_);
  if (!cfg_.checkpoint_path.empty()) {
    std::ifstream ck(cfg_.checkpoint_path, std::ios::binary);
    if (ck) {
      try {
        resume_snap_ = replay::load_checkpoint(ck);
      } catch (const std::exception&) {
        // Torn checkpoint (kill mid-rename window): fall back to a cold
        // replay of the whole journal — slower, same digest.
        resume_snap_.reset();
      }
    }
  }
  if (resume_snap_.has_value() &&
      resume_snap_->source_events_consumed > events) {
    // Checkpoint claims more input than the journal holds — it cannot
    // belong to this journal; replay cold rather than corrupt the run.
    resume_snap_.reset();
  }
  resume_replay_->skip(resume_snap_.has_value()
                           ? resume_snap_->source_events_consumed
                           : 0);
  journal_out_.open(cfg_.journal_path, std::ios::app);
  if (!journal_out_) {
    throw std::runtime_error("service: cannot append to journal '" +
                             cfg_.journal_path + "'");
  }
}

// ------------------------------------------------------------ engine thread

std::string ServiceDaemon::wait_workload_name() {
  std::unique_lock<std::mutex> lock(mu_);
  name_cv_.wait(lock,
                [this] { return !adopted_name_.empty() || stopping_; });
  return adopted_name_;
}

void ServiceDaemon::engine_main() {
  ServiceReport rep;
  try {
    SimConfig cfg;
    std::shared_ptr<workload::WorkloadSource> source;
    const std::string name = wait_workload_name();
    if (name.empty()) {
      throw std::runtime_error(
          "service: shut down before any workload was named");
    }
    auto live =
        std::make_shared<ServiceSource>(ingress_, name, cfg_.num_ports);
    if (cfg_.resume) {
      cfg = resume_replay_->recorded_config();
      std::shared_ptr<workload::WorkloadSource> tail = live;
      if (journal_out_.is_open()) {
        tail = std::make_shared<replay::RecordingSource>(
            live, journal_out_, replay::RecordingSource::kAppend);
      }
      source = std::make_shared<ChainSource>(resume_replay_, std::move(tail));
    } else {
      cfg = cfg_.sim;
      apply_scheduler_sim_overrides(cfg_.scheduler, cfg);
      cfg.strict_input = false;
      if (!cfg_.journal_path.empty()) {
        journal_out_.open(cfg_.journal_path, std::ios::trunc);
        if (!journal_out_) {
          throw std::runtime_error("service: cannot write journal '" +
                                   cfg_.journal_path + "'");
        }
        source = std::make_shared<replay::RecordingSource>(
            live, journal_out_, cfg, cfg_.seed);
      } else {
        source = live;
      }
    }
    auto sched = make_scheduler(cfg_.scheduler);
    Engine engine(std::move(source), *sched, cfg);
    const TelemetryGuard guard{telemetry_};
    telemetry_.store(&engine.telemetry());
    if (resume_snap_.has_value()) engine.restore_snapshot(*resume_snap_);
    if (!cfg_.checkpoint_path.empty() && cfg_.checkpoint_every_epochs > 0) {
      const std::string path = cfg_.checkpoint_path;
      engine.set_snapshot_hook(
          cfg_.checkpoint_every_epochs, [path](const EngineSnapshot& snap) {
            // tmp + rename: a kill leaves either the old checkpoint or the
            // new one, never a torn file under the canonical name.
            const std::string tmp = path + ".tmp";
            {
              std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
              replay::save_checkpoint(out, snap);
            }
            std::rename(tmp.c_str(), path.c_str());
          });
    }
    engine.set_result_sink(sink_.get());
    const SimResult result = engine.run();
    rep.ok = true;
    rep.digest = replay::result_digest(result);
    rep.digest_hex = replay::result_digest_hex(result);
    rep.makespan = result.makespan;
    rep.completions = sink_->completions();
    rep.engine_stats = engine.stats();
  } catch (const std::exception& e) {
    rep.ok = false;
    rep.error = e.what();
  }
  const std::string end_line =
      rep.ok ? format_end(rep.digest_hex, rep.makespan)
             : format_end("deadbeefdeadbeef", -1);
  // END goes out before finished_ flips: wait() returning is the owner's
  // cue to destroy the daemon, and the destructor closes every connection
  // — a client blocked on END must already have its frame in the socket.
  broadcast(end_line);
  {
    const std::lock_guard<std::mutex> lock(report_mu_);
    report_ = std::move(rep);
    finished_ = true;
  }
  report_cv_.notify_all();
}

// --------------------------------------------------------------- transport

void ServiceDaemon::acceptor_loop() {
  for (;;) {
    auto conn = listener_->accept();
    if (!conn.has_value()) return;
    auto client = std::make_shared<ClientConn>();
    client->conn = std::move(*conn);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      client->key = next_conn_key_++;
      conns_.emplace(client->key, client);
    }
    const std::lock_guard<std::mutex> lock(readers_mu_);
    reader_threads_.emplace_back(
        [this, client] { reader_loop(client); });
  }
}

bool ServiceDaemon::write_to(ClientConn& client, const std::string& line) {
  const std::lock_guard<std::mutex> lock(client.write_mu);
  return client.conn.send_line(line);
}

bool ServiceDaemon::write_to_session(std::uint32_t sid,
                                     const std::string& line) {
  std::shared_ptr<ClientConn> client;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto key = session_conn_.find(sid);
    if (key == session_conn_.end()) return false;
    const auto it = conns_.find(key->second);
    if (it == conns_.end()) return false;
    client = it->second;
  }
  return write_to(*client, line);
}

void ServiceDaemon::broadcast(const std::string& line) {
  std::vector<std::shared_ptr<ClientConn>> clients;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    clients.reserve(conns_.size());
    for (const auto& [key, client] : conns_) {
      (void)key;
      clients.push_back(client);
    }
  }
  for (const auto& client : clients) (void)write_to(*client, line);
}

void ServiceDaemon::drop_connection(const std::shared_ptr<ClientConn>& client) {
  std::uint32_t sid = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    sid = client->sid;
    conns_.erase(client->key);
    if (sid != 0) session_conn_.erase(sid);
  }
  if (sid != 0) {
    // Disconnect is an implicit FIN: the merge barrier must not wait on a
    // peer that can never push again, and its completion routes die with
    // the socket.
    ingress_->finish_session(sid);
    sink_->release_session(sid);
  }
  client->conn.close();
}

void ServiceDaemon::reader_loop(std::shared_ptr<ClientConn> client) {
  FrameReader framer;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  char buf[64 * 1024];
  for (;;) {
    const long r = client->conn.recv_some(buf, sizeof buf);
    if (r <= 0) break;
    if (!framer.feed(buf, static_cast<std::size_t>(r))) {
      (void)write_to(*client,
                     format_reject("oversized-frame",
                                   "line exceeds " +
                                       std::to_string(kMaxFrameBytes) +
                                       " bytes; closing"));
      break;
    }
    while (auto frame = framer.next_frame()) {
      handle_frame(*client, *frame, accepted, rejected);
    }
    if (framer.overflowed()) {
      (void)write_to(*client, format_reject("oversized-frame", "closing"));
      break;
    }
  }
  drop_connection(client);
}

// ----------------------------------------------------------------- requests

void ServiceDaemon::handle_frame(ClientConn& client, const std::string& frame,
                                 std::int64_t& accepted,
                                 std::int64_t& rejected) {
  Request req = parse_request(frame);
  switch (req.kind) {
    case Request::Kind::kHello: {
      if (client.sid != 0) {
        (void)write_to(client, format_reject("protocol", "already HELLOed"));
        return;
      }
      if (req.num_ports != cfg_.num_ports) {
        (void)write_to(
            client,
            format_reject("fabric-mismatch",
                          "daemon has " + std::to_string(cfg_.num_ports) +
                              " ports, client expects " +
                              std::to_string(req.num_ports)));
        return;
      }
      {
        const std::lock_guard<std::mutex> lock(mu_);
        if (adopted_name_.empty()) {
          adopted_name_ = req.workload_name;
        } else if (adopted_name_ != req.workload_name) {
          (void)write_to(client,
                         format_reject("workload-mismatch",
                                       "daemon runs '" + adopted_name_ +
                                           "', client drives '" +
                                           req.workload_name + "'"));
          return;
        }
      }
      name_cv_.notify_all();
      const std::uint32_t sid = ingress_->open_session(req.client_name);
      {
        const std::lock_guard<std::mutex> lock(mu_);
        client.sid = sid;
        session_conn_[sid] = client.key;
      }
      (void)write_to(client, format_welcome(sid, ingress_->watermark()));
      return;
    }
    case Request::Kind::kEvent: {
      if (client.sid == 0) {
        ++rejected;
        (void)write_to(client, format_reject("no-session", "HELLO first"));
        return;
      }
      if (req.event.kind == workload::WorkloadEvent::Kind::kArrival) {
        // Claim completion routing BEFORE admission so a completion racing
        // the accept cannot slip between them; an already-completed id
        // (restart re-drive) short-circuits to a DONE replay.
        if (const auto done =
                sink_->claim(req.event.coflow.id, client.sid)) {
          (void)write_to(client, *done);
          return;
        }
      }
      const SimTime t = req.event.time;
      const std::int64_t id =
          req.event.kind == workload::WorkloadEvent::Kind::kArrival
              ? req.event.coflow.id.value
              : -1;
      const Accept verdict = ingress_->push(client.sid, std::move(req.event));
      if (verdict == Accept::kOk) {
        ++accepted;
      } else {
        ++rejected;
        (void)write_to(client,
                       format_reject(accept_name(verdict),
                                     "t=" + std::to_string(t) +
                                         (id >= 0 ? " id=" + std::to_string(id)
                                                  : std::string())));
      }
      return;
    }
    case Request::Kind::kReactive: {
      if (client.sid == 0) {
        (void)write_to(client, format_reject("no-session", "HELLO first"));
        return;
      }
      ingress_->set_reactive(client.sid);
      return;  // no ack: a state declaration, like IDLE
    }
    case Request::Kind::kIdle: {
      if (client.sid == 0) {
        (void)write_to(client, format_reject("no-session", "HELLO first"));
        return;
      }
      ingress_->set_idle(client.sid, req.idle_dones);
      return;  // no ack: IDLE is a state declaration, not a request
    }
    case Request::Kind::kStats: {
      (void)write_to(client, stats_text() + "ENDSTATS");
      return;
    }
    case Request::Kind::kFin: {
      if (client.sid != 0) ingress_->finish_session(client.sid);
      (void)write_to(client, format_finok(accepted, rejected));
      return;
    }
    case Request::Kind::kShutdown: {
      (void)write_to(client, "BYE");
      shutdown();
      return;
    }
    case Request::Kind::kBad: {
      ++rejected;
      (void)write_to(client, format_reject("malformed-frame", req.error));
      return;
    }
  }
}

// -------------------------------------------------------------------- stats

std::string ServiceDaemon::stats_text() const {
  std::ostringstream out;
  const auto stat = [&out](const std::string& key, const std::string& val) {
    out << "STAT " << key << ' ' << val << '\n';
  };
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  const IngressStats in = ingress_->stats_snapshot();
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", uptime);
  stat("uptime_sec", buf);
  stat("ingest_events", std::to_string(in.pushed));
  stat("ingest_rejected", std::to_string(in.rejected));
  stat("ingest_released", std::to_string(in.released));
  std::snprintf(buf, sizeof buf, "%.1f",
                uptime > 0 ? static_cast<double>(in.pushed) / uptime : 0.0);
  stat("ingest_events_per_sec", buf);
  const auto usec = [&buf](double seconds) {
    std::snprintf(buf, sizeof buf, "%.1f", seconds * 1e6);
    return std::string(buf);
  };
  stat("admission_wait_p50_us", usec(in.wait_latency.percentile(50)));
  stat("admission_wait_p99_us", usec(in.wait_latency.percentile(99)));
  stat("admission_wait_max_us", usec(in.wait_latency.max()));
  if (const LiveTelemetry* t = telemetry_.load()) {
    stat("live_coflows", std::to_string(t->live_coflows.load()));
    stat("completed_coflows", std::to_string(t->completed_coflows.load()));
    stat("epochs", std::to_string(t->epochs.load()));
    stat("quarantined_now", std::to_string(t->quarantined_now.load()));
    stat("abandoned", std::to_string(t->abandoned.load()));
    stat("engine_source_events", std::to_string(t->source_events.load()));
    stat("engine_rejected_events", std::to_string(t->rejected_events.load()));
    stat("sim_now_us", std::to_string(t->sim_now.load()));
  }
  stat("completions_streamed", std::to_string(sink_->completions()));
  stat("completions_unrouted", std::to_string(sink_->unrouted()));
  stat("sessions", std::to_string(in.sessions.size()));
  for (std::size_t i = 0; i < in.sessions.size(); ++i) {
    const SessionCounters& s = in.sessions[i];
    const std::string prefix = "client." + s.name + ".";
    stat(prefix + "accepted", std::to_string(s.accepted));
    stat(prefix + "rejected", std::to_string(s.rejected));
    stat(prefix + "finished", s.finished ? "1" : "0");
    stat(prefix + "idle", s.idle ? "1" : "0");
  }
  return out.str();
}

}  // namespace saath::service
