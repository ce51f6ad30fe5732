#include "service/client.h"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/tokens.h"
#include "replay/journal.h"

namespace saath::service {

bool ServiceClient::fail(const std::string& why) {
  report_.ok = false;
  if (report_.error.empty()) report_.error = why;
  return false;
}

bool ServiceClient::send_line(const std::string& line) {
  return conn_.send_line(line);
}

bool ServiceClient::read_frame(std::string& frame) {
  for (;;) {
    if (auto f = framer_.next_frame()) {
      frame = std::move(*f);
      return true;
    }
    char buf[16 * 1024];
    const long r = conn_.recv_some(buf, sizeof buf);
    if (r <= 0) return false;
    if (!framer_.feed(buf, static_cast<std::size_t>(r))) return false;
  }
}

bool ServiceClient::drain_available(workload::WorkloadSource* reactive) {
  for (;;) {
    while (auto f = framer_.next_frame()) handle_frame(*f, reactive);
    if (!conn_.recv_ready(0)) return true;
    char buf[16 * 1024];
    const long r = conn_.recv_some(buf, sizeof buf);
    if (r < 0) return fail("recv error draining replies");
    if (r == 0) return true;  // EOF surfaces on the next blocking read
    if (!framer_.feed(buf, static_cast<std::size_t>(r))) {
      return fail("oversized reply frame");
    }
  }
}

void ServiceClient::handle_frame(const std::string& frame,
                                 workload::WorkloadSource* reactive) {
  // A malformed reply is skipped, as an unknown verb is; a DONE is still
  // counted, since IDLE reports every DONE frame the daemon routed here.
  Tokens tokens(frame, "frame", 0);
  const std::string_view verb = tokens.next();
  if (verb == "DONE") {
    ++report_.dones;
    if (const auto rec = parse_done(frame)) {
      outstanding_.erase(rec->id.value);
      if (reactive != nullptr) reactive->on_coflow_complete(*rec, rec->finish);
    }
  } else if (verb == "REJ") {
    ++report_.rejects_seen;
    if (report_.reject_lines.size() < 16) report_.reject_lines.push_back(frame);
    const std::string_view kind = tokens.next();
    std::int64_t id = -1;
    for (std::string_view tok = tokens.next(); !tok.empty();
         tok = tokens.next()) {
      if (tok.starts_with("id=")) id = parse_int(tok.substr(3)).value_or(-1);
    }
    // duplicate-id means the arrival already lives in the run (restart
    // re-drive): its DONE is still owed here, keep it outstanding.
    if (id >= 0 && kind != "duplicate-id") outstanding_.erase(id);
  } else if (verb == "WELCOME") {
    const auto sid = parse_int(tokens.next());
    const auto wm = parse_int(tokens.next());
    if (sid && wm && *sid > 0 && *sid == static_cast<std::uint32_t>(*sid)) {
      report_.session = static_cast<std::uint32_t>(*sid);
      report_.watermark = *wm;
    }
  } else if (verb == "FINOK") {
    const auto accepted = parse_int(tokens.next());
    const auto rejected = parse_int(tokens.next());
    if (accepted && rejected) {
      report_.accepted = *accepted;
      report_.rejected = *rejected;
      fin_ok_ = true;
    }
  } else if (verb == "END") {
    const std::string_view digest = tokens.next();
    const auto makespan = parse_int(tokens.next());
    if (!digest.empty() && makespan) {
      report_.digest_hex = digest;
      report_.makespan = *makespan;
      report_.got_end = true;
    }
  }
  // BYE, STAT/ENDSTATS and anything unknown: ignored (forward
  // compatibility).
}

bool ServiceClient::connect(const std::string& workload_name, int num_ports) {
  try {
    conn_ = dial(opts_.address);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  if (!send_line("HELLO " + opts_.client_name + ' ' +
                 std::to_string(num_ports) + ' ' + workload_name)) {
    return fail("peer closed during HELLO");
  }
  std::string frame;
  for (;;) {
    if (!read_frame(frame)) return fail("connection closed before WELCOME");
    handle_frame(frame, nullptr);
    if (report_.session != 0) break;
    if (frame.rfind("REJ ", 0) == 0) {
      return fail("handshake rejected: " + frame);
    }
  }
  // Declare reactivity before any event: the daemon must block its engine
  // after every DONE it routes here until this client answers.
  if (opts_.reactive && !send_line("REACTIVE")) {
    return fail("peer closed at REACTIVE");
  }
  return true;
}

bool ServiceClient::drive(workload::WorkloadSource& source) {
  workload::WorkloadSource* reactive = opts_.reactive ? &source : nullptr;
  // Event frames batch into one send_all per ~64 KiB: the syscall pair
  // (send + reply poll) per event caps ingest well below the wire's
  // capacity otherwise. Throttled runs flush per event — pacing is the
  // point there.
  std::string batch;
  const auto flush = [this, &batch] {
    if (batch.empty()) return true;
    const bool ok = conn_.send_all(batch.data(), batch.size());
    batch.clear();
    return ok;
  };
  for (;;) {
    if (report_.got_end) return true;  // run ended under us; nothing to send
    const SimTime t = source.peek_next_time();
    if (t == kNever) {
      if (!flush()) return fail("peer closed mid-stream");
      if (!drain_available(reactive)) return false;
      if (report_.got_end) return true;
      if (reactive == nullptr || outstanding_.empty()) break;
      // The source is waiting on completions: declare IDLE (the daemon's
      // barrier exemption), then block for feedback. A DONE may release
      // new events — the loop re-peeks and streams them, and the daemon
      // blocks its engine until this burst ends in another IDLE (or FIN).
      // The dones count makes an IDLE that crossed a DONE on the wire
      // recognizably stale daemon-side.
      if (!send_line("IDLE " + std::to_string(report_.dones))) {
        return fail("peer closed at IDLE");
      }
      std::string frame;
      if (!read_frame(frame)) {
        return fail("connection closed while awaiting completions");
      }
      handle_frame(frame, reactive);
      continue;
    }
    workload::WorkloadEvent ev = source.next();
    if (ev.kind == workload::WorkloadEvent::Kind::kArrival) {
      outstanding_.insert(ev.coflow.id.value);
    }
    batch += replay::format_event_line(ev);
    batch += '\n';
    ++report_.sent;
    if (opts_.throttle_us > 0 || batch.size() >= 64 * 1024) {
      if (!flush()) return fail("peer closed mid-stream");
      if (opts_.throttle_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(opts_.throttle_us));
      }
      if (!drain_available(reactive)) return false;
    }
  }
  return true;
}

bool ServiceClient::finish() {
  if (!send_line("FIN")) return fail("peer closed at FIN");
  std::string frame;
  while (!fin_ok_) {
    if (!read_frame(frame)) return fail("connection closed before FINOK");
    handle_frame(frame, nullptr);
  }
  if (opts_.wait_end) {
    while (!report_.got_end) {
      if (!read_frame(frame)) return fail("connection closed before END");
      handle_frame(frame, nullptr);
    }
  }
  report_.ok = true;
  return true;
}

}  // namespace saath::service
