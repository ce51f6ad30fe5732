// Reference client for saath_serve: drives any WorkloadSource over the wire.
//
// The drive loop streams events as wire frames (the journal grammar) and
// interleaves non-blocking reads so daemon pushback (DONE / REJ lines) is
// drained as it arrives — neither side's socket buffer can fill and
// deadlock the pair. In reactive mode (DAG scenarios) the client feeds each
// DONE back into the source (on_coflow_complete), sends whatever events
// that released, and declares IDLE when its source has nothing pending —
// the daemon-side barrier exemption that lets the engine advance epochs
// while completions are outstanding (see service/ingress.h). The loop ends
// when the source is exhausted AND (reactive) every arrival it sent has
// resolved; finish() then FINs and waits for FINOK and the broadcast END
// carrying the run digest — the value the offline oracle run is diffed
// against.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "service/protocol.h"
#include "service/transport.h"
#include "workload/source.h"

namespace saath::service {

struct ClientOptions {
  std::string address;
  std::string client_name = "client";
  /// Wall-clock pause after each event frame — paces the script so a CI
  /// smoke run can land a SIGKILL mid-stream deterministically-enough.
  std::int64_t throttle_us = 0;
  /// Feed DONE lines back into the source (DAG scenarios) and use the
  /// IDLE verb while waiting on completions.
  bool reactive = false;
  /// After FINOK, keep reading until the END broadcast (digest). Off for
  /// clients that only inject and leave.
  bool wait_end = true;
};

struct ClientReport {
  bool ok = false;
  std::string error;
  std::uint32_t session = 0;
  SimTime watermark = 0;  // from WELCOME: daemon's release watermark
  std::int64_t sent = 0;
  std::int64_t accepted = -1;  // from FINOK (-1 = no FINOK seen)
  std::int64_t rejected = -1;
  std::int64_t rejects_seen = 0;  // REJ lines observed on this connection
  /// First few REJ lines verbatim, for diagnostics.
  std::vector<std::string> reject_lines;
  std::int64_t dones = 0;
  bool got_end = false;
  std::string digest_hex;  // from END
  SimTime makespan = 0;
};

class ServiceClient {
 public:
  explicit ServiceClient(ClientOptions opts) : opts_(std::move(opts)) {}

  /// Dials and handshakes. False on failure (report().error says why).
  [[nodiscard]] bool connect(const std::string& workload_name, int num_ports);
  /// Streams `source` to the daemon (see header comment). connect() first.
  [[nodiscard]] bool drive(workload::WorkloadSource& source);
  /// FIN -> FINOK, then (wait_end) reads until the END broadcast.
  [[nodiscard]] bool finish();

  [[nodiscard]] const ClientReport& report() const { return report_; }
  /// Raw frame escape hatch (tests: malformed frames, torn writes).
  [[nodiscard]] bool send_line(const std::string& line);
  [[nodiscard]] Connection& connection() { return conn_; }

 private:
  [[nodiscard]] bool fail(const std::string& why);
  /// Blocking read of the next complete frame; false on EOF / error.
  [[nodiscard]] bool read_frame(std::string& frame);
  /// Drains whatever reply bytes are already pending (instant poll).
  [[nodiscard]] bool drain_available(workload::WorkloadSource* reactive);
  void handle_frame(const std::string& frame,
                    workload::WorkloadSource* reactive);

  ClientOptions opts_;
  Connection conn_;
  FrameReader framer_;
  ClientReport report_;
  /// Arrival ids sent whose outcome is unresolved. DONE resolves; REJ
  /// resolves EXCEPT duplicate-id — that arrival lives in the run already
  /// (a restart re-drive), so its DONE is still owed to this session.
  std::unordered_set<std::int64_t> outstanding_;
  bool fin_ok_ = false;
};

}  // namespace saath::service
