#include "replay/journal.h"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "common/expect.h"
#include "common/tokens.h"

namespace saath::replay {

namespace {

/// Appends " <tok>". Split +='s (char, then token) rather than a
/// `" " + tok` temporary: GCC 12's -Wrestrict misfires on the inlined
/// operator+(const char*, string&&) path (GCC PR105329).
void append_token(std::string& line, const std::string& tok) {
  line += ' ';
  line += tok;
}

void write_config(std::string& line, const SimConfig& c) {
  line += 'C';
  append_hexfloat(line, c.port_bandwidth);
  append_token(line, std::to_string(c.delta));
  append_token(line, std::to_string(static_cast<int>(c.reallocate_on_completion)));
  // Three retired engine-mode slots, see the format note.
  append_token(line, "1");
  append_token(line, "1");
  append_token(line, "1");
  append_token(line, std::to_string(static_cast<int>(c.record_results)));
  append_token(line, std::to_string(c.max_sim_time));
  append_token(line, "0");  // reserved slot, see the format note
  append_token(line, std::to_string(c.max_stall_epochs));
  append_token(line, std::to_string(c.max_requeue_attempts));
  append_token(line, std::to_string(static_cast<int>(c.strict_input)));
}

[[nodiscard]] SimConfig read_config(Tokens& tokens) {
  SimConfig c;
  c.port_bandwidth = tokens.take_double();
  c.delta = tokens.take_int();
  c.reallocate_on_completion = tokens.take_int() != 0;
  for (int retired = 0; retired < 3; ++retired) (void)tokens.take_int();
  c.record_results = tokens.take_int() != 0;
  c.max_sim_time = tokens.take_int();
  (void)tokens.take_int();  // reserved slot
  c.max_stall_epochs = tokens.take_int_field("max_stall_epochs");
  c.max_requeue_attempts = tokens.take_int_field("max_requeue_attempts");
  c.strict_input = tokens.take_int() != 0;
  return c;
}

}  // namespace

// ------------------------------------------------------ event-line grammar

std::string format_event_line(const workload::WorkloadEvent& ev) {
  std::string line;
  switch (ev.kind) {
    case workload::WorkloadEvent::Kind::kArrival: {
      // coflow.arrival is journaled even though it normally equals the
      // event time: tolerant-mode fault streams carry mismatches, and the
      // replay must reproduce the defect, not repair it.
      line = "A " + std::to_string(ev.time) + ' ' +
             std::to_string(ev.coflow.id.value) + ' ' +
             std::to_string(ev.coflow.job.value) + ' ' +
             std::to_string(ev.coflow.stage) + ' ' +
             std::to_string(ev.coflow.arrival) + ' ' +
             std::to_string(ev.data_ready) + ' ' +
             std::to_string(ev.coflow.flows.size());
      for (const FlowSpec& f : ev.coflow.flows) {
        line += ' ' + std::to_string(f.src) + ' ' + std::to_string(f.dst) +
                ' ' + std::to_string(f.size);
      }
      break;
    }
    case workload::WorkloadEvent::Kind::kDynamics:
      line = "D " + std::to_string(ev.time) + ' ' +
             std::to_string(static_cast<int>(ev.dynamics.kind)) + ' ' +
             std::to_string(ev.dynamics.port);
      append_hexfloat(line, ev.dynamics.capacity_factor);
      break;
    case workload::WorkloadEvent::Kind::kDataAvailable:
      line = "G " + std::to_string(ev.time) + ' ' +
             std::to_string(ev.gated.value);
      break;
  }
  return line;
}

void take_flows(Tokens& tokens, std::vector<FlowSpec>& flows) {
  const std::int64_t n = tokens.take_int();
  if (n < 0) throw tokens.error("negative flow count");
  // Each flow takes at least six bytes of the line (" s d z"; rest() drops
  // the first space), so a count the line cannot hold reserves only what it
  // can, and the read below runs out of tokens instead of memory.
  flows.reserve(static_cast<std::size_t>(std::min<std::int64_t>(
      n, static_cast<std::int64_t>((tokens.rest().size() + 1) / 6))));
  for (std::int64_t i = 0; i < n; ++i) {
    FlowSpec f;
    f.src = tokens.take_port();
    f.dst = tokens.take_port();
    f.size = tokens.take_int();
    flows.push_back(f);
  }
}

std::optional<workload::WorkloadEvent> parse_event_line(
    std::string_view line, std::int64_t line_no) {
  Tokens tokens(line, "journal", line_no);
  const std::string_view tag = tokens.next();
  if (tag.empty()) return std::nullopt;
  workload::WorkloadEvent ev;
  if (tag == "A") {
    ev.kind = workload::WorkloadEvent::Kind::kArrival;
    ev.time = tokens.take_int();
    ev.coflow.id = CoflowId{tokens.take_int()};
    ev.coflow.job = JobId{tokens.take_int()};
    ev.coflow.stage = tokens.take_int_field("stage");
    ev.coflow.arrival = tokens.take_int();
    ev.data_ready = tokens.take_int();
    take_flows(tokens, ev.coflow.flows);
  } else if (tag == "D") {
    ev.kind = workload::WorkloadEvent::Kind::kDynamics;
    ev.time = tokens.take_int();
    ev.dynamics.time = ev.time;
    const std::int64_t kind = tokens.take_int();
    if (kind < static_cast<int>(DynamicsEvent::Kind::kNodeFailure) ||
        kind > static_cast<int>(DynamicsEvent::Kind::kStragglerEnd)) {
      throw tokens.error("unknown dynamics kind " + std::to_string(kind));
    }
    ev.dynamics.kind = static_cast<DynamicsEvent::Kind>(kind);
    ev.dynamics.port = tokens.take_port();
    ev.dynamics.capacity_factor = tokens.take_double();
  } else if (tag == "G") {
    ev.kind = workload::WorkloadEvent::Kind::kDataAvailable;
    ev.time = tokens.take_int();
    ev.gated = CoflowId{tokens.take_int()};
  } else {
    throw tokens.error("unknown event tag '" + std::string(tag) + "'");
  }
  return ev;
}

// --------------------------------------------------------- RecordingSource

RecordingSource::RecordingSource(
    std::shared_ptr<workload::WorkloadSource> inner, std::ostream& out,
    const SimConfig& config, std::int64_t seed)
    : inner_(std::move(inner)), out_(out) {
  SAATH_EXPECTS(inner_ != nullptr);
  out_ << "SAATHJ1 " << inner_->num_ports() << ' ' << seed << ' '
       << inner_->name() << '\n';
  std::string line;
  write_config(line, config);
  out_ << line << '\n';
  out_.flush();
}

RecordingSource::RecordingSource(
    std::shared_ptr<workload::WorkloadSource> inner, std::ostream& out,
    append_mode_t)
    : inner_(std::move(inner)), out_(out) {
  SAATH_EXPECTS(inner_ != nullptr);
}

workload::WorkloadEvent RecordingSource::next() {
  workload::WorkloadEvent ev = inner_->next();
  // Line-then-flush BEFORE handing the event to the engine: a kill mid-run
  // leaves a journal whose prefix is exactly the consumed stream.
  out_ << format_event_line(ev) << '\n';
  out_.flush();
  return ev;
}

// ------------------------------------------------------------ ReplaySource

ReplaySource::ReplaySource(std::istream& in) : in_(in) {
  if (!std::getline(in_, line_)) {
    throw std::runtime_error("journal: empty stream");
  }
  ++line_no_;
  Tokens header(line_, "journal", line_no_);
  const std::string_view magic = header.next();
  if (magic != "SAATHJ1") {
    throw std::runtime_error("journal: bad magic '" + std::string(magic) +
                             "'");
  }
  num_ports_ = header.take_int_field("port count");
  seed_ = header.take_int();
  // Everything after the seed is the recorded name (may contain spaces).
  name_ = header.rest();
  if (!std::getline(in_, line_)) {
    throw std::runtime_error("journal: missing config line");
  }
  ++line_no_;
  Tokens config(line_, "journal", line_no_);
  const std::string_view tag = config.next();
  if (tag != "C") {
    throw std::runtime_error("journal: expected config line, got '" +
                             std::string(tag) + "'");
  }
  config_ = read_config(config);
}

void ReplaySource::fill() {
  if (next_.has_value()) return;
  while (std::getline(in_, line_)) {
    ++line_no_;
    if (auto ev = parse_event_line(line_, line_no_)) {
      next_ = std::move(*ev);
      return;
    }
  }
}

SimTime ReplaySource::peek_next_time() {
  fill();
  return next_.has_value() ? next_->time : kNever;
}

workload::WorkloadEvent ReplaySource::next() {
  fill();
  SAATH_EXPECTS(next_.has_value());
  workload::WorkloadEvent ev = std::move(*next_);
  next_.reset();
  return ev;
}

void ReplaySource::skip(std::int64_t n) {
  SAATH_EXPECTS(n >= 0);
  for (std::int64_t i = 0; i < n; ++i) {
    fill();
    if (!next_.has_value()) {
      throw std::runtime_error(
          "journal: checkpoint consumed " + std::to_string(n) +
          " events but the journal holds only " + std::to_string(i));
    }
    next_.reset();
  }
}

// ----------------------------------------------------------------- digests

namespace {

struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    i64(static_cast<std::int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
};

}  // namespace

std::uint64_t result_digest(const SimResult& result) {
  // Canonical order regardless of how the records were accumulated.
  std::vector<const CoflowRecord*> recs;
  recs.reserve(result.coflows.size());
  for (const CoflowRecord& r : result.coflows) recs.push_back(&r);
  std::sort(recs.begin(), recs.end(),
            [](const CoflowRecord* a, const CoflowRecord* b) {
              return a->id < b->id;
            });
  Fnv fnv;
  fnv.str(result.scheduler);
  fnv.str(result.trace);
  fnv.i64(result.makespan);
  fnv.i64(static_cast<std::int64_t>(recs.size()));
  for (const CoflowRecord* r : recs) {
    fnv.i64(r->id.value);
    fnv.i64(r->job.value);
    fnv.i64(r->stage);
    fnv.i64(r->arrival);
    fnv.i64(r->finish);
    fnv.i64(r->width);
    fnv.i64(r->total_bytes);
    fnv.i64(static_cast<std::int64_t>(r->equal_flow_lengths));
    for (const double fct : r->flow_fcts_seconds) fnv.f64(fct);
    for (const double sz : r->flow_sizes) fnv.f64(sz);
  }
  return fnv.h;
}

std::string result_digest_hex(const SimResult& result) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(result_digest(result)));
  return buf;
}

}  // namespace saath::replay
