#include "service/protocol.h"

#include <stdexcept>

#include "common/tokens.h"
#include "replay/journal.h"

namespace saath::service {

// -------------------------------------------------------------- FrameReader

bool FrameReader::feed(const char* data, std::size_t n) {
  if (overflowed_) return false;
  buf_.append(data, n);
  // The overflow check keys on the *unterminated tail*: an open frame
  // longer than max_frame_ means the peer is not speaking the protocol.
  // (A completed oversized frame is caught in next_frame.)
  const auto last_nl = buf_.rfind('\n');
  const std::size_t tail_start =
      last_nl == std::string::npos ? consumed_ : last_nl + 1;
  if (buf_.size() - tail_start > max_frame_) {
    overflowed_ = true;
    return false;
  }
  return true;
}

std::optional<std::string> FrameReader::next_frame() {
  if (overflowed_) return std::nullopt;
  const auto nl = buf_.find('\n', scan_from_ > consumed_ ? scan_from_
                                                         : consumed_);
  if (nl == std::string::npos) {
    scan_from_ = buf_.size();
    // Everything buffered is consumed or an open tail; drop the consumed
    // prefix so the buffer never grows with throughput.
    if (consumed_ > 0) {
      buf_.erase(0, consumed_);
      scan_from_ -= consumed_;
      consumed_ = 0;
    }
    return std::nullopt;
  }
  if (nl - consumed_ > max_frame_) {
    // A single-feed blast can complete an oversized frame before the open-
    // tail check in feed() ever saw it unterminated.
    overflowed_ = true;
    return std::nullopt;
  }
  std::string frame = buf_.substr(consumed_, nl - consumed_);
  // Advance the cursor instead of erasing per frame: draining a large
  // batched feed stays O(bytes), not O(frames * buffer).
  consumed_ = nl + 1;
  scan_from_ = consumed_;
  if (!frame.empty() && frame.back() == '\r') frame.pop_back();
  return frame;
}

// ------------------------------------------------------------ request parse

Request parse_request(const std::string& frame) {
  Request req;
  if (frame.empty()) {
    req.error = "empty frame";
    return req;
  }
  const char tag = frame[0];
  if (tag == 'A' || tag == 'G' || tag == 'D') {
    try {
      auto ev = replay::parse_event_line(frame, 0);
      if (!ev.has_value()) {
        req.error = "blank event frame";
        return req;
      }
      req.kind = Request::Kind::kEvent;
      req.event = std::move(*ev);
    } catch (const std::exception& e) {
      req.error = e.what();
    }
    return req;
  }
  Tokens tokens(frame, "frame", 0);
  const std::string_view verb = tokens.next();
  if (verb == "HELLO") {
    req.client_name = tokens.next();
    const auto ports = parse_int(tokens.next());
    if (req.client_name.empty() || !ports || *ports <= 0 ||
        *ports != static_cast<int>(*ports)) {
      req.error = "HELLO wants: HELLO <client> <num_ports> <workload...>";
      return req;
    }
    req.num_ports = static_cast<int>(*ports);
    req.workload_name = tokens.rest();
    if (req.workload_name.empty()) {
      req.error = "HELLO missing workload name";
      return req;
    }
    req.kind = Request::Kind::kHello;
  } else if (verb == "REACTIVE") {
    req.kind = Request::Kind::kReactive;
  } else if (verb == "IDLE") {
    const std::string_view count = tokens.next();
    const auto dones = parse_int(count);
    if (!count.empty() && !dones) {
      req.error = "IDLE wants: IDLE [<dones-seen>]";
      return req;
    }
    req.idle_dones = dones.value_or(-1);
    req.kind = Request::Kind::kIdle;
  } else if (verb == "STATS") {
    req.kind = Request::Kind::kStats;
  } else if (verb == "FIN") {
    req.kind = Request::Kind::kFin;
  } else if (verb == "SHUTDOWN") {
    req.kind = Request::Kind::kShutdown;
  } else {
    req.error = "unknown verb '" + std::string(verb) + "'";
  }
  return req;
}

// -------------------------------------------------------------- formatting

std::string format_welcome(std::uint32_t session, SimTime watermark) {
  return "WELCOME " + std::to_string(session) + ' ' +
         std::to_string(watermark);
}

std::string format_reject(const char* kind, const std::string& detail) {
  std::string line = "REJ ";
  line += kind;
  if (!detail.empty()) {
    line += ' ';
    line += detail;
  }
  return line;
}

std::string format_done(const CoflowRecord& rec) {
  return "DONE " + std::to_string(rec.id.value) + ' ' +
         std::to_string(rec.job.value) + ' ' + std::to_string(rec.stage) +
         ' ' + std::to_string(rec.arrival) + ' ' +
         std::to_string(rec.finish);
}

std::string format_finok(std::int64_t accepted, std::int64_t rejected) {
  return "FINOK " + std::to_string(accepted) + ' ' +
         std::to_string(rejected);
}

std::string format_end(const std::string& digest_hex, SimTime makespan) {
  return "END " + digest_hex + ' ' + std::to_string(makespan);
}

std::optional<CoflowRecord> parse_done(std::string_view line) {
  Tokens tokens(line, "frame", 0);
  if (tokens.next() != "DONE") return std::nullopt;
  try {
    CoflowRecord rec;
    rec.id = CoflowId{tokens.take_int()};
    rec.job = JobId{tokens.take_int()};
    rec.stage = tokens.take_int_field("stage");
    rec.arrival = tokens.take_int();
    rec.finish = tokens.take_int();
    return rec;
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

}  // namespace saath::service
