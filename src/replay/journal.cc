#include "replay/journal.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/expect.h"

namespace saath::replay {

namespace {

/// Doubles travel as C hexfloats: strtod round-trips the exact bits, which
/// is the whole point of a byte-identity journal. (istream's >> double
/// cannot parse hexfloat, hence tokenize-then-strtod everywhere.)
void append_double(std::string& line, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, " %a", v);
  line += buf;
}

[[nodiscard]] double parse_double(const std::string& tok, std::int64_t line_no) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') {
    throw std::runtime_error("journal line " + std::to_string(line_no) +
                             ": bad double '" + tok + "'");
  }
  return v;
}

[[nodiscard]] std::int64_t parse_int(const std::string& tok,
                                     std::int64_t line_no) {
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (end == tok.c_str() || *end != '\0') {
    throw std::runtime_error("journal line " + std::to_string(line_no) +
                             ": bad integer '" + tok + "'");
  }
  return static_cast<std::int64_t>(v);
}

/// Pulls the next whitespace token; throws naming the line on exhaustion.
[[nodiscard]] std::string take(std::istringstream& ss, std::int64_t line_no) {
  std::string tok;
  if (!(ss >> tok)) {
    throw std::runtime_error("journal line " + std::to_string(line_no) +
                             ": truncated record");
  }
  return tok;
}

/// Appends " <tok>". Split +='s (char, then token) rather than a
/// `" " + tok` temporary: GCC 12's -Wrestrict misfires on the inlined
/// operator+(const char*, string&&) path (GCC PR105329).
void append_token(std::string& line, const std::string& tok) {
  line += ' ';
  line += tok;
}

void write_config(std::string& line, const SimConfig& c) {
  line += 'C';
  append_double(line, c.port_bandwidth);
  append_token(line, std::to_string(c.delta));
  append_token(line, std::to_string(static_cast<int>(c.reallocate_on_completion)));
  append_token(line, std::to_string(static_cast<int>(c.check_capacity)));
  append_token(line, std::to_string(static_cast<int>(c.skip_quiescent_epochs)));
  append_token(line, std::to_string(static_cast<int>(c.event_driven)));
  append_token(line, std::to_string(static_cast<int>(c.record_results)));
  append_token(line, std::to_string(c.max_sim_time));
  append_token(line, "0");  // reserved slot, see the format note
  append_token(line, std::to_string(c.max_stall_epochs));
  append_token(line, std::to_string(c.max_requeue_attempts));
  append_token(line, std::to_string(static_cast<int>(c.strict_input)));
}

[[nodiscard]] SimConfig read_config(std::istringstream& ss,
                                    std::int64_t line_no) {
  SimConfig c;
  c.port_bandwidth = parse_double(take(ss, line_no), line_no);
  c.delta = parse_int(take(ss, line_no), line_no);
  c.reallocate_on_completion = parse_int(take(ss, line_no), line_no) != 0;
  c.check_capacity = parse_int(take(ss, line_no), line_no) != 0;
  c.skip_quiescent_epochs = parse_int(take(ss, line_no), line_no) != 0;
  c.event_driven = parse_int(take(ss, line_no), line_no) != 0;
  c.record_results = parse_int(take(ss, line_no), line_no) != 0;
  c.max_sim_time = parse_int(take(ss, line_no), line_no);
  (void)parse_int(take(ss, line_no), line_no);  // reserved slot
  c.max_stall_epochs = static_cast<int>(parse_int(take(ss, line_no), line_no));
  c.max_requeue_attempts =
      static_cast<int>(parse_int(take(ss, line_no), line_no));
  c.strict_input = parse_int(take(ss, line_no), line_no) != 0;
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
      append_double(line, ev.dynamics.capacity_factor);
      break;
    case workload::WorkloadEvent::Kind::kDataAvailable:
      line = "G " + std::to_string(ev.time) + ' ' +
             std::to_string(ev.gated.value);
      break;
  }
  return line;
}

std::optional<workload::WorkloadEvent> parse_event_line(
    const std::string& line, std::int64_t line_no) {
  if (line.empty()) return std::nullopt;
  std::istringstream ss(line);
  std::string tag;
  ss >> tag;
  if (tag.empty()) return std::nullopt;
  workload::WorkloadEvent ev;
  if (tag == "A") {
    ev.kind = workload::WorkloadEvent::Kind::kArrival;
    ev.time = parse_int(take(ss, line_no), line_no);
    ev.coflow.id = CoflowId{parse_int(take(ss, line_no), line_no)};
    ev.coflow.job = JobId{parse_int(take(ss, line_no), line_no)};
    ev.coflow.stage = static_cast<int>(parse_int(take(ss, line_no), line_no));
    ev.coflow.arrival = parse_int(take(ss, line_no), line_no);
    ev.data_ready = parse_int(take(ss, line_no), line_no);
    const std::int64_t n = parse_int(take(ss, line_no), line_no);
    if (n < 0) {
      throw std::runtime_error("journal line " + std::to_string(line_no) +
                               ": negative flow count");
    }
    ev.coflow.flows.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      FlowSpec f;
      f.src = static_cast<PortIndex>(parse_int(take(ss, line_no), line_no));
      f.dst = static_cast<PortIndex>(parse_int(take(ss, line_no), line_no));
      f.size = parse_int(take(ss, line_no), line_no);
      ev.coflow.flows.push_back(f);
    }
  } else if (tag == "D") {
    ev.kind = workload::WorkloadEvent::Kind::kDynamics;
    ev.time = parse_int(take(ss, line_no), line_no);
    ev.dynamics.time = ev.time;
    ev.dynamics.kind =
        static_cast<DynamicsEvent::Kind>(parse_int(take(ss, line_no), line_no));
    ev.dynamics.port =
        static_cast<PortIndex>(parse_int(take(ss, line_no), line_no));
    ev.dynamics.capacity_factor = parse_double(take(ss, line_no), line_no);
  } else if (tag == "G") {
    ev.kind = workload::WorkloadEvent::Kind::kDataAvailable;
    ev.time = parse_int(take(ss, line_no), line_no);
    ev.gated = CoflowId{parse_int(take(ss, line_no), line_no)};
  } else {
    throw std::runtime_error("journal line " + std::to_string(line_no) +
                             ": unknown event tag '" + tag + "'");
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
  std::string line;
  if (!std::getline(in_, line)) {
    throw std::runtime_error("journal: empty stream");
  }
  ++line_no_;
  std::istringstream ss(line);
  std::string magic;
  ss >> magic;
  if (magic != "SAATHJ1") {
    throw std::runtime_error("journal: bad magic '" + magic + "'");
  }
  num_ports_ = static_cast<int>(parse_int(take(ss, line_no_), line_no_));
  seed_ = parse_int(take(ss, line_no_), line_no_);
  // Everything after the seed is the recorded name (may contain spaces).
  std::getline(ss, name_);
  if (!name_.empty() && name_.front() == ' ') name_.erase(0, 1);
  if (!std::getline(in_, line)) {
    throw std::runtime_error("journal: missing config line");
  }
  ++line_no_;
  std::istringstream cs(line);
  std::string tag;
  cs >> tag;
  if (tag != "C") {
    throw std::runtime_error("journal: expected config line, got '" + tag +
                             "'");
  }
  config_ = read_config(cs, line_no_);
}

void ReplaySource::fill() {
  if (next_.has_value()) return;
  std::string line;
  while (std::getline(in_, line)) {
    ++line_no_;
    if (auto ev = parse_event_line(line, line_no_)) {
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
