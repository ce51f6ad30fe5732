// ResultSink that streams completions back to the registering clients.
//
// The engine delivers completions (on its thread, in completion order);
// the sink routes each to the session that registered the CoflowId and
// hands the formatted DONE line to a writer callback (the daemon's
// per-connection locked write). Routing keys on CoflowId ONLY — the
// service layer never holds engine object pointers (CoflowState is
// reclaimed mid-run under record_results=false; see the `service-detach`
// lint check), so a route outliving the CoFlow's engine state is safe.
//
// For crash-safe restarts the sink retains every DONE line by id (one
// small string per completed CoFlow): a reconnecting client that
// re-registers an already-completed CoFlow gets its DONE replayed
// immediately instead of a silent drop.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "sim/result.h"

namespace saath::service {

class ServiceSink final : public ResultSink {
 public:
  /// `writer(session, line)` sends one frame; false = session gone (the
  /// route is dropped). Must be callable from the engine thread.
  using Writer = std::function<bool(std::uint32_t, const std::string&)>;

  explicit ServiceSink(Writer writer) : writer_(std::move(writer)) {}

  /// Routes future (or replays past) completion of `id` to `session`.
  /// Returns the retained DONE line when the CoFlow already completed —
  /// the caller sends it and must NOT forward the registration further.
  [[nodiscard]] std::optional<std::string> claim(CoflowId id,
                                                std::uint32_t session);
  /// Disconnect: drop every route to `session` (completions for its
  /// CoFlows are counted unrouted instead of written to a dead socket).
  void release_session(std::uint32_t session);

  void on_coflow_complete(const CoflowRecord& rec, SimTime now) override;
  void on_run_end(SimTime makespan) override;

  [[nodiscard]] std::int64_t completions() const;
  [[nodiscard]] std::int64_t unrouted() const;
  [[nodiscard]] SimTime makespan() const;

 private:
  Writer writer_;
  mutable std::mutex mu_;
  std::unordered_map<std::int64_t, std::uint32_t> route_;
  std::unordered_map<std::int64_t, std::string> done_lines_;
  std::int64_t completions_ = 0;
  std::int64_t unrouted_ = 0;
  SimTime makespan_ = 0;
};

}  // namespace saath::service
