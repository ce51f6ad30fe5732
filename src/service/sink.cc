#include "service/sink.h"

#include "service/protocol.h"

namespace saath::service {

std::optional<std::string> ServiceSink::claim(CoflowId id,
                                              std::uint32_t session) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (const auto done = done_lines_.find(id.value);
      done != done_lines_.end()) {
    return done->second;
  }
  // Last claim wins: after a crash the re-registering session takes over
  // completion routing from the dead one.
  route_[id.value] = session;
  return std::nullopt;
}

void ServiceSink::release_session(std::uint32_t session) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto it = route_.begin(); it != route_.end();) {
    it = it->second == session ? route_.erase(it) : std::next(it);
  }
}

void ServiceSink::on_coflow_complete(const CoflowRecord& rec, SimTime now) {
  (void)now;
  std::string line = format_done(rec);
  std::uint32_t session = 0;
  bool routed = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++completions_;
    done_lines_.emplace(rec.id.value, line);
    if (const auto it = route_.find(rec.id.value); it != route_.end()) {
      session = it->second;
      routed = true;
      route_.erase(it);
    }
  }
  // The socket write happens outside mu_: a slow client must not block
  // claim()/release paths on the reader threads.
  if (!routed || !writer_(session, line)) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++unrouted_;
  }
}

void ServiceSink::on_run_end(SimTime makespan) {
  const std::lock_guard<std::mutex> lock(mu_);
  makespan_ = makespan;
}

std::int64_t ServiceSink::completions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return completions_;
}

std::int64_t ServiceSink::unrouted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return unrouted_;
}

SimTime ServiceSink::makespan() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return makespan_;
}

}  // namespace saath::service
