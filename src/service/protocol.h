// Line-oriented framed wire protocol for saath_serve.
//
// Every frame is one newline-terminated text line. Requests reuse the
// journal event grammar verbatim (replay::format_event_line /
// parse_event_line — an accepted client message IS a journal line, so the
// daemon's journal doubles as a transcript of accepted input) plus a small
// set of control verbs:
//
//   client -> daemon
//     HELLO <client-name> <num_ports> <workload-name...>
//     REACTIVE                          (declare before any events: this
//                                        session answers completions, so the
//                                        engine must block after routing it
//                                        a DONE until IDLE or FIN)
//     A <time> <id> <job> <stage> <arrival> <data_ready> <n> {<s> <d> <sz>}*
//     G <time> <gated-id>
//     D <time> <kind> <port> <hexfloat-factor>
//     IDLE [<dones-seen>]               (reactive client: burst over, no
//                                        events until the next completion.
//                                        dones-seen = DONE frames processed;
//                                        an IDLE older than the last DONE
//                                        routed is stale and ignored, so a
//                                        completion crossing an IDLE on the
//                                        wire cannot release the barrier
//                                        early; a malformed count makes
//                                        the frame bad)
//     STATS
//     FIN
//     SHUTDOWN
//
//   daemon -> client
//     WELCOME <session-id> <release-watermark-us>
//     REJ <kind> <detail...>            (typed admission reject; stream
//                                        continues — no per-event ACKs)
//     DONE <id> <job> <stage> <arrival> <finish>
//     FINOK <accepted> <rejected>
//     STAT <key> <value>  ...  ENDSTATS
//     END <digest-hex> <makespan-us>    (run drained; broadcast to all)
//     BYE
//
// Frames are read through common/tokens.h: a malformed request parses to
// Request::Kind::kBad, and the client skips a malformed reply.
//
// FrameReader splits a byte stream into frames incrementally: it tolerates
// torn writes (a frame arriving across arbitrarily many reads) and rejects
// oversized frames (kMaxFrameBytes) as a protocol error rather than
// buffering without bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sim/result.h"
#include "workload/source.h"

namespace saath::service {

/// Upper bound on one frame. An arrival line carries ~24 bytes per flow, so
/// 1 MiB admits coflows ~40k flows wide — far past any fabric here.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

/// Incremental newline framer over a torn byte stream.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame = kMaxFrameBytes)
      : max_frame_(max_frame) {}

  /// Appends raw bytes. Returns false when the in-progress frame exceeds
  /// max_frame — a protocol violation; the connection must be dropped (the
  /// framer cannot resynchronize and stops accepting input).
  [[nodiscard]] bool feed(const char* data, std::size_t n);

  /// Pops the next complete frame (newline stripped; a trailing '\r' too,
  /// so netcat-style clients work). nullopt when no full frame is buffered.
  [[nodiscard]] std::optional<std::string> next_frame();

  [[nodiscard]] bool overflowed() const { return overflowed_; }

 private:
  std::size_t max_frame_;
  std::string buf_;
  std::size_t consumed_ = 0;   // frames before this offset already popped
  std::size_t scan_from_ = 0;  // resume point for the newline scan
  bool overflowed_ = false;
};

/// One parsed client request.
struct Request {
  enum class Kind {
    kHello,
    kReactive,
    kEvent,
    kIdle,
    kStats,
    kFin,
    kShutdown,
    kBad,  // malformed frame: `error` says why, connection stays up
  };
  Kind kind = Kind::kBad;
  // kHello
  std::string client_name;
  std::string workload_name;
  int num_ports = 0;
  // kIdle: DONE frames the client had processed when it declared idle
  // (-1 = not stated: unconditional, for hand-driven netcat sessions)
  std::int64_t idle_dones = -1;
  // kEvent
  workload::WorkloadEvent event;
  // kBad
  std::string error;
};

[[nodiscard]] Request parse_request(const std::string& frame);

/// Daemon -> client formatting -------------------------------------------
[[nodiscard]] std::string format_welcome(std::uint32_t session,
                                         SimTime watermark);
[[nodiscard]] std::string format_reject(const char* kind,
                                        const std::string& detail);
[[nodiscard]] std::string format_done(const CoflowRecord& rec);
[[nodiscard]] std::string format_finok(std::int64_t accepted,
                                       std::int64_t rejected);
[[nodiscard]] std::string format_end(const std::string& digest_hex,
                                     SimTime makespan);

/// Client-side parse of a DONE line into the CoflowRecord fields reactive
/// sources consume (id, job, stage, arrival, finish — per-flow detail does
/// not travel). Returns nullopt when `line` is not a well-formed DONE
/// frame.
[[nodiscard]] std::optional<CoflowRecord> parse_done(std::string_view line);

}  // namespace saath::service
