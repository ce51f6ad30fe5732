// Deterministic capture/replay of workload event streams.
//
// The engine's result is a pure function of (merged event stream, SimConfig,
// scheduler) — every other degree of freedom (heap history, skip
// decisions) is fenced to bit-identity by the reference-engine invariants. A
// RecordingSource therefore journals exactly the stream the engine consumed:
// each next() is appended (and flushed — the journal must survive a kill)
// before the event is handed over, so a journal prefix is always a valid
// replayable stream. A ReplaySource re-feeds a journal with O(1) live
// memory, parsing lazily line by line; skip(n) positions it past the events
// a checkpoint already consumed (sim/snapshot.h::source_events_consumed).
//
// Reactive feedback is captured, not re-derived: a DagSource releases stages
// off completion callbacks, and those released events were journaled as
// pulled — the ReplaySource ignores on_coflow_complete() and replays the
// recorded releases at their recorded instants, which the deterministic
// engine reproduces exactly.
//
// Format (line-oriented text, one event per line; doubles in C hexfloat so
// round-trips are bit-exact):
//   SAATHJ1 <num_ports> <seed> <name...>
//   C <bandwidth> <delta> <realloc> <checkcap> <skip> <event> <record>
//     <max_sim_time> <reserved> <stall> <requeue> <strict>
//   (<reserved> held the retired intra-epoch shard count: written as 0 and
//   ignored on read, so journals written before and after its removal
//   load in either build. <checkcap>, <skip> and <event> held the retired
//   check_capacity, skip_quiescent_epochs and event_driven engine modes:
//   written as 1, the value every default run wrote, and ignored on read,
//   so a run records the same bytes it recorded before their removal)
//   A <time> <id> <job> <stage> <arrival> <data_ready> <nflows>
//     {<src> <dst> <size>}*
//   D <time> <kind> <port> <factor>
//   G <time> <gated-id>
// Lines are read in place by common/tokens.h, the tokenizer every text
// input shares: integers are decimal int64, and a reject is a
// std::runtime_error naming the line ("journal line N: ..."). Ports
// (<src>, <dst>, <port>), <num_ports>, <stage>, <stall> and <requeue> must
// also fit int32, <kind> must name a DynamicsEvent::Kind (0..2), and
// <nflows> is bounded by the line: a count the rest of the line cannot
// hold fails as a truncated record, with nothing reserved for it. Tokens
// after a record are ignored.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/tokens.h"
#include "sim/engine.h"
#include "sim/result.h"
#include "workload/source.h"

namespace saath::replay {

/// Wraps a workload source, journaling every event it emits to `out`
/// (caller-owned, must outlive the source). The header (ports, seed,
/// config, name) is written at construction; every event line is flushed.
/// Serializes one workload event as its journal line (A/D/G grammar above,
/// no trailing newline). This is the one formatter for the event grammar —
/// the service wire protocol reuses it, so a client message IS a journal
/// line and the daemon's journal IS a transcript of accepted messages.
[[nodiscard]] std::string format_event_line(const workload::WorkloadEvent& ev);

/// Parses one event line in place. Returns nullopt for a blank line;
/// throws std::runtime_error naming `line_no` on a malformed or unknown
/// record, an integer past int64, a port past int32, or a flow count the
/// line cannot hold. Tokens after the record are ignored.
[[nodiscard]] std::optional<workload::WorkloadEvent> parse_event_line(
    std::string_view line, std::int64_t line_no);

/// Reads a flow list, "<nflows> {<src> <dst> <size>}*", as an A line and
/// a checkpoint's S line carry it. Nothing is reserved past what the rest
/// of the line can hold.
void take_flows(Tokens& tokens, std::vector<FlowSpec>& flows);

class RecordingSource final : public workload::WorkloadSource {
 public:
  RecordingSource(std::shared_ptr<workload::WorkloadSource> inner,
                  std::ostream& out, const SimConfig& config,
                  std::int64_t seed);

  /// Append mode for daemon restarts: journals events WITHOUT writing a
  /// header — `out` must be an existing SAATHJ1 journal opened for append,
  /// so snapshot::source_events_consumed stays a valid cursor into the
  /// combined (old prefix + appended suffix) stream across repeated crashes.
  struct append_mode_t {};
  static constexpr append_mode_t kAppend{};
  RecordingSource(std::shared_ptr<workload::WorkloadSource> inner,
                  std::ostream& out, append_mode_t);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] int num_ports() const override { return inner_->num_ports(); }
  [[nodiscard]] SimTime peek_next_time() override {
    return inner_->peek_next_time();
  }
  [[nodiscard]] workload::WorkloadEvent next() override;
  void on_coflow_complete(const CoflowRecord& rec, SimTime now) override {
    inner_->on_coflow_complete(rec, now);
  }

 private:
  std::shared_ptr<workload::WorkloadSource> inner_;
  std::ostream& out_;
};

/// Replays a journal written by RecordingSource. Parses the header eagerly
/// (recorded name/ports/seed/config are queryable before any event) and the
/// event lines lazily — live memory is one event regardless of journal
/// size. Throws std::runtime_error on a malformed journal.
class ReplaySource final : public workload::WorkloadSource {
 public:
  /// `in` is caller-owned and must outlive the source.
  explicit ReplaySource(std::istream& in);

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] int num_ports() const override { return num_ports_; }
  [[nodiscard]] SimTime peek_next_time() override;
  [[nodiscard]] workload::WorkloadEvent next() override;
  /// Recorded completion feedback already shaped the journal; ignore it.
  void on_coflow_complete(const CoflowRecord&, SimTime) override {}

  /// Discards the next `n` events — positions the stream past a
  /// checkpoint's source_events_consumed for a resume.
  void skip(std::int64_t n);

  [[nodiscard]] const SimConfig& recorded_config() const { return config_; }
  [[nodiscard]] std::int64_t recorded_seed() const { return seed_; }

 private:
  /// Parses lines until an event materializes in next_ or input ends.
  void fill();

  std::istream& in_;
  std::string name_;
  int num_ports_ = 0;
  std::int64_t seed_ = 0;
  SimConfig config_;
  std::optional<workload::WorkloadEvent> next_;
  /// The line being parsed; reused, so reading keeps its capacity.
  std::string line_;
  std::int64_t line_no_ = 0;
};

/// Order-independent 64-bit FNV-1a digest over a SimResult's canonical
/// bytes: records sorted by id, every field (doubles as bit patterns), plus
/// the makespan. Two runs are bit-identical iff digests match — this is
/// the oracle the record/replay and checkpoint/resume CI gates compare.
[[nodiscard]] std::uint64_t result_digest(const SimResult& result);
/// result_digest as fixed-width lowercase hex (CLI / CI convenience).
[[nodiscard]] std::string result_digest_hex(const SimResult& result);

}  // namespace saath::replay
