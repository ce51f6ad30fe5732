// Measurement probes the benchmark wraps around the program's public
// boundaries. Nothing here changes a decision: every wrapper forwards each
// call unchanged, and the benchmark checks that a wrapped run's result
// digest equals an unwrapped run's.
//
//   Tracer          in-memory span recorder (name, start, end, parent) with
//                   exact per-name total and self time; writes Chrome
//                   trace-event JSON for Perfetto.
//   TimedScheduler  Scheduler decorator: two clock reads per round when
//                   untraced, a span per call when traced.
//   TimedSource     WorkloadSource wrapper: spans on peek/next/feedback.
//   CheckSink       the benchmark's ResultSink: CCTs, exactly-once and
//                   isolation-bound checks, a completion-order digest, and
//                   the completion count the round samples are keyed by.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/result.h"
#include "sim/scheduler.h"
#include "workload/source.h"

namespace coordbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : std::uint8_t {
  kRun,
  kSchedule,
  kValidUntil,
  kHookArrival,
  kHookFlow,
  kHookCoflow,
  kHookQuarantine,
  kSourcePeek,
  kSourceNext,
  kSourceFeedback,
  kSinkComplete,
  kSinkRunEnd,
  kClientSend,
  kClientDrain,
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(
                                             SpanKind::kCount)>
    kSpanNames = {"Engine::run",
                  "Scheduler::schedule",
                  "Scheduler::schedule_valid_until",
                  "Scheduler::on_coflow_arrival",
                  "Scheduler::on_flow_complete",
                  "Scheduler::on_coflow_complete",
                  "Scheduler::on_coflow_quarantined",
                  "WorkloadSource::peek_next_time",
                  "WorkloadSource::next",
                  "WorkloadSource::on_coflow_complete",
                  "ResultSink::on_coflow_complete",
                  "ResultSink::on_run_end",
                  "ServiceClient::drive",
                  "ServiceClient::finish"};

/// Single-threaded span recorder. Spans nest strictly (open/close pairs on
/// one thread); a span's self time is its duration minus the time its
/// direct children cover. Raw spans are kept in memory up to a cap and
/// written out after the run; totals are exact regardless of the cap.
class Tracer {
 public:
  struct Totals {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  explicit Tracer(std::size_t max_spans) : max_spans_(max_spans) {
    spans_.reserve(max_spans);
    stack_.reserve(16);
  }

  void open(SpanKind kind) {
    stack_.push_back(Frame{kind, now_ns(), 0, kNoParent});
    if (spans_.size() < max_spans_) {
      stack_.back().index = static_cast<std::uint32_t>(spans_.size());
      spans_.push_back(Span{stack_.back().start, 0, parent_index(), kind});
    } else {
      ++dropped_;
    }
  }

  void close() {
    const std::int64_t end = now_ns();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = end - f.start;
    Totals& t = totals_[static_cast<std::size_t>(f.kind)];
    t.total_ns += dur;
    t.self_ns += dur - f.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.index != kNoParent) spans_[f.index].end = end;
  }

  [[nodiscard]] const Totals& totals(SpanKind kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }
  /// Chrome trace-event JSON ("X" complete events, µs timestamps relative
  /// to the first span), loadable in https://ui.perfetto.dev.
  void write_chrome(std::FILE* out, const std::string& metadata_json) const {
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"metadata\":%s,",
                 metadata_json.c_str());
    std::fprintf(out, "\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld}}",
                   i == 0 ? "" : ",", kSpanNames[static_cast<std::size_t>(
                                          s.kind)],
                   static_cast<double>(s.start - base) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3, i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent));
    }
    std::fprintf(out, "\n],\"droppedSpans\":%lld}\n",
                 static_cast<long long>(dropped_));
  }

  [[nodiscard]] std::size_t recorded() const { return spans_.size(); }

 private:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  struct Frame {
    SpanKind kind;
    std::int64_t start;
    std::int64_t child_ns;
    std::uint32_t index;
  };
  struct Span {
    std::int64_t start;
    std::int64_t end;
    std::uint32_t parent;
    SpanKind kind;
  };

  [[nodiscard]] std::uint32_t parent_index() const {
    return stack_.size() < 2 ? kNoParent : stack_[stack_.size() - 2].index;
  }

  std::size_t max_spans_;
  std::int64_t dropped_ = 0;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::array<Totals, static_cast<std::size_t>(SpanKind::kCount)> totals_{};
};

/// RAII span; a null tracer makes it free (no clock read).
class Scope {
 public:
  Scope(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(kind);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

/// One schedule() call as the decorator saw it: when it began, how long it
/// took, and how many CoFlows had completed before it began.
struct RoundSample {
  std::int64_t begin_ns = 0;
  std::int64_t dur_ns = 0;
  std::int64_t completed = 0;
};

/// Scheduler decorator. Untraced it reads the clock twice per schedule()
/// call and appends a RoundSample to `rounds`; traced it records a span for
/// every call instead (the round time is the span's duration).
/// `completed` is the sink's running completion count.
class TimedScheduler final : public saath::Scheduler {
 public:
  struct Counters {
    std::int64_t rounds = 0;
    std::int64_t busy_ns = 0;
    std::int64_t rated_flows = 0;
    std::int64_t hook_calls = 0;
  };

  TimedScheduler(saath::Scheduler& inner, Tracer* tracer,
                 std::vector<RoundSample>& rounds,
                 const std::int64_t& completed)
      : inner_(inner),
        tracer_(tracer),
        rounds_(rounds),
        completed_(completed) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  using saath::Scheduler::schedule;
  void schedule(saath::SimTime now,
                std::span<saath::CoflowState* const> active,
                saath::Fabric& fabric, saath::RateAssignment& rates) override {
    const std::int64_t t0 = begin_round();
    inner_.schedule(now, active, fabric, rates);
    end_round(t0, rates);
  }
  void schedule(saath::SimTime now,
                std::span<saath::CoflowState* const> active,
                saath::Fabric& fabric, saath::RateAssignment& rates,
                const saath::SchedulerDelta& delta) override {
    const std::int64_t t0 = begin_round();
    inner_.schedule(now, active, fabric, rates, delta);
    end_round(t0, rates);
  }

  [[nodiscard]] saath::SimTime schedule_valid_until(
      saath::SimTime now,
      std::span<saath::CoflowState* const> active) const override {
    Scope s(tracer_, SpanKind::kValidUntil);
    return inner_.schedule_valid_until(now, active);
  }

  void set_parallelism(saath::parallel::ThreadPool* pool,
                       int shards) override {
    saath::Scheduler::set_parallelism(pool, shards);
    inner_.set_parallelism(pool, shards);
  }

  void on_coflow_arrival(saath::CoflowState& coflow,
                         saath::SimTime now) override {
    ++counters_.hook_calls;
    Scope s(tracer_, SpanKind::kHookArrival);
    inner_.on_coflow_arrival(coflow, now);
  }
  void on_flow_complete(saath::CoflowState& coflow, saath::FlowState& flow,
                        saath::SimTime now) override {
    ++counters_.hook_calls;
    Scope s(tracer_, SpanKind::kHookFlow);
    inner_.on_flow_complete(coflow, flow, now);
  }
  void on_coflow_complete(saath::CoflowState& coflow,
                          saath::SimTime now) override {
    ++counters_.hook_calls;
    Scope s(tracer_, SpanKind::kHookCoflow);
    inner_.on_coflow_complete(coflow, now);
  }
  void on_coflow_quarantined(saath::CoflowState& coflow,
                             saath::SimTime now) override {
    ++counters_.hook_calls;
    Scope s(tracer_, SpanKind::kHookQuarantine);
    inner_.on_coflow_quarantined(coflow, now);
  }

  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  std::int64_t begin_round() {
    if (tracer_ != nullptr) {
      tracer_->open(SpanKind::kSchedule);
      return 0;
    }
    return now_ns();
  }
  void end_round(std::int64_t t0, const saath::RateAssignment& rates) {
    std::int64_t dur = 0;
    if (tracer_ != nullptr) {
      const std::int64_t before = tracer_->totals(SpanKind::kSchedule).total_ns;
      tracer_->close();
      dur = tracer_->totals(SpanKind::kSchedule).total_ns - before;
    } else {
      dur = now_ns() - t0;
    }
    rounds_.push_back(RoundSample{t0, dur, completed_});
    ++counters_.rounds;
    counters_.busy_ns += dur;
    counters_.rated_flows += static_cast<std::int64_t>(rates.touched().size());
  }

  saath::Scheduler& inner_;
  Tracer* tracer_;
  std::vector<RoundSample>& rounds_;
  const std::int64_t& completed_;
  Counters counters_;
};

/// WorkloadSource wrapper: forwards every call, counts them, and records a
/// span per call when traced.
class TimedSource final : public saath::workload::WorkloadSource {
 public:
  TimedSource(std::shared_ptr<saath::workload::WorkloadSource> inner,
              Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] int num_ports() const override { return inner_->num_ports(); }
  [[nodiscard]] saath::SimTime peek_next_time() override {
    ++calls_;
    Scope s(tracer_, SpanKind::kSourcePeek);
    return inner_->peek_next_time();
  }
  [[nodiscard]] saath::workload::WorkloadEvent next() override {
    ++calls_;
    Scope s(tracer_, SpanKind::kSourceNext);
    return inner_->next();
  }
  void on_coflow_complete(const saath::CoflowRecord& rec,
                          saath::SimTime now) override {
    ++calls_;
    Scope s(tracer_, SpanKind::kSourceFeedback);
    inner_->on_coflow_complete(rec, now);
  }

  [[nodiscard]] std::int64_t calls() const { return calls_; }

 private:
  std::shared_ptr<saath::workload::WorkloadSource> inner_;
  Tracer* tracer_;
  std::int64_t calls_ = 0;
};

/// The benchmark's ResultSink. Ids must be dense in [0, lower_bounds.size()).
/// Per completion: exactly-once bookkeeping, the isolation lower bound
/// check, the CCT sample, and an FNV-1a digest over (id, arrival, finish)
/// in completion order.
class CheckSink final : public saath::ResultSink {
 public:
  CheckSink(const std::vector<double>& lower_bounds, Tracer* tracer)
      : lower_bounds_(lower_bounds),
        tracer_(tracer),
        seen_(lower_bounds.size(), 0) {
    ccts_.reserve(lower_bounds.size());
  }

  void on_coflow_complete(const saath::CoflowRecord& rec,
                          saath::SimTime now) override {
    Scope s(tracer_, SpanKind::kSinkComplete);
    const std::int64_t id = rec.id.value;
    if (id < 0 || static_cast<std::size_t>(id) >= seen_.size() ||
        seen_[static_cast<std::size_t>(id)] != 0) {
      ++bad_;
    } else {
      seen_[static_cast<std::size_t>(id)] = 1;
      const double cct = rec.cct_seconds();
      // Completions land on µs instants; allow one µs of rounding.
      if (cct + 1e-6 < lower_bounds_[static_cast<std::size_t>(id)] ||
          now != rec.finish) {
        ++bad_;
      }
      ccts_.push_back(cct);
    }
    mix(static_cast<std::uint64_t>(id));
    mix(static_cast<std::uint64_t>(rec.arrival));
    mix(static_cast<std::uint64_t>(rec.finish));
    ++completed_;
  }
  void on_run_end(saath::SimTime makespan) override {
    Scope s(tracer_, SpanKind::kSinkRunEnd);
    mix(static_cast<std::uint64_t>(makespan));
  }

  /// Every id seen exactly once, every CCT at or above its bound.
  [[nodiscard]] std::int64_t failed() const {
    return bad_ + std::count(seen_.begin(), seen_.end(), 0);
  }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] const std::vector<double>& ccts() const { return ccts_; }
  /// Completions so far (the TimedScheduler stamps it on every round).
  [[nodiscard]] const std::int64_t& completed() const { return completed_; }

 private:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest_ ^= (v >> (8 * i)) & 0xffu;
      digest_ *= 0x100000001b3ull;
    }
  }

  const std::vector<double>& lower_bounds_;
  Tracer* tracer_;
  std::vector<std::uint8_t> seen_;
  std::vector<double> ccts_;
  std::int64_t completed_ = 0;
  std::int64_t bad_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;
};

}  // namespace coordbench
