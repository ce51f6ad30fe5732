#include "replay/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace saath::replay {

namespace {

void append_double(std::string& line, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, " %a", v);
  line += buf;
}

[[nodiscard]] double parse_double(const std::string& tok) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') {
    throw std::runtime_error("checkpoint: bad double '" + tok + "'");
  }
  return v;
}

[[nodiscard]] std::int64_t parse_int(const std::string& tok) {
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (end == tok.c_str() || *end != '\0') {
    throw std::runtime_error("checkpoint: bad integer '" + tok + "'");
  }
  return static_cast<std::int64_t>(v);
}

/// Token cursor over the whole checkpoint body — the format is a flat
/// token stream once the header line is consumed, so reading does not need
/// per-line state.
struct Cursor {
  std::istream& in;
  std::string tok;

  [[nodiscard]] std::string take() {
    if (!(in >> tok)) throw std::runtime_error("checkpoint: truncated");
    return tok;
  }
  [[nodiscard]] std::int64_t i64() { return parse_int(take()); }
  [[nodiscard]] int i32() { return static_cast<int>(parse_int(take())); }
  [[nodiscard]] double f64() { return parse_double(take()); }
  [[nodiscard]] bool flag() { return parse_int(take()) != 0; }
  void expect_tag(const char* tag) {
    if (take() != tag) {
      throw std::runtime_error("checkpoint: expected '" + std::string(tag) +
                               "', got '" + tok + "'");
    }
  }
};

void write_coflow(std::ostream& out, const CoflowSnapshot& cs) {
  // The third slot is retired (see checkpoint.h): written as 0.
  std::string line = "K " + std::to_string(cs.first_flow_id) + ' ' +
                     std::to_string(cs.queue_index) + " 0 " +
                     std::to_string(cs.deadline) + ' ' +
                     std::to_string(static_cast<int>(cs.dynamics_flagged)) +
                     ' ' +
                     std::to_string(static_cast<int>(cs.data_available)) +
                     ' ' + std::to_string(cs.stall_rounds) + ' ' +
                     std::to_string(cs.requeue_attempts);
  out << line << '\n';
  out << "S " << cs.spec.id.value << ' ' << cs.spec.arrival << ' '
      << cs.spec.job.value << ' ' << cs.spec.stage << ' '
      << cs.spec.flows.size();
  for (const FlowSpec& f : cs.spec.flows) {
    out << ' ' << f.src << ' ' << f.dst << ' ' << f.size;
  }
  out << '\n';
  for (const FlowSnapshot& fs : cs.flows) {
    // operator=(char), not operator=(const char*): GCC 12's -Wrestrict
    // misfires on the latter when inlined into this loop (GCC PR105329).
    line = 'F';
    append_double(line, fs.sent_base);
    append_double(line, fs.rate);
    line += ' ' + std::to_string(fs.anchor) + ' ' +
            std::to_string(fs.predicted_finish) + ' ' +
            std::to_string(static_cast<int>(fs.finished)) + ' ' +
            std::to_string(fs.finish_time);
    out << line << '\n';
  }
}

[[nodiscard]] CoflowSnapshot read_coflow(Cursor& c) {
  CoflowSnapshot cs;
  c.expect_tag("K");
  cs.first_flow_id = c.i64();
  cs.queue_index = c.i32();
  (void)c.i64();  // retired slot, see checkpoint.h
  cs.deadline = c.i64();
  cs.dynamics_flagged = c.flag();
  cs.data_available = c.flag();
  cs.stall_rounds = c.i32();
  cs.requeue_attempts = c.i32();
  c.expect_tag("S");
  cs.spec.id = CoflowId{c.i64()};
  cs.spec.arrival = c.i64();
  cs.spec.job = JobId{c.i64()};
  cs.spec.stage = c.i32();
  const std::int64_t n = c.i64();
  if (n < 0) throw std::runtime_error("checkpoint: negative flow count");
  cs.spec.flows.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    FlowSpec f;
    f.src = static_cast<PortIndex>(c.i64());
    f.dst = static_cast<PortIndex>(c.i64());
    f.size = c.i64();
    cs.spec.flows.push_back(f);
  }
  cs.flows.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    c.expect_tag("F");
    FlowSnapshot fs;
    fs.sent_base = c.f64();
    fs.rate = c.f64();
    fs.anchor = c.i64();
    fs.predicted_finish = c.i64();
    fs.finished = c.flag();
    fs.finish_time = c.i64();
    cs.flows.push_back(fs);
  }
  return cs;
}

}  // namespace

void save_checkpoint(std::ostream& out, const EngineSnapshot& snap) {
  out << "SAATHC1 " << snap.num_ports << ' ' << snap.scheduler << '\n';
  // Names may contain spaces: rest-of-line field.
  out << "T " << snap.trace << '\n';
  out << "H " << snap.now << ' ' << snap.rounds << ' ' << snap.epochs << ' '
      << snap.next_flow_id << ' ' << snap.source_events_consumed << ' '
      << snap.last_source_time << ' ' << snap.last_arrival_id << ' '
      << snap.makespan << '\n';
  // The two 0s hold the retired injected-arrival and pending-dynamics
  // counts (see the format note in checkpoint.h).
  out << "N " << snap.active.size() << ' ' << snap.quarantined.size() << ' '
      << snap.data_gates.size() << " 0 0 " << snap.capacity_factors.size()
      << ' ' << snap.completed.size() << '\n';
  for (const CoflowSnapshot& cs : snap.active) write_coflow(out, cs);
  for (const QuarantineSnapshot& qs : snap.quarantined) {
    out << "Q " << qs.release_at << '\n';
    write_coflow(out, qs.coflow);
  }
  for (const auto& [id, when] : snap.data_gates) {
    out << "G " << id << ' ' << when << '\n';
  }
  for (const auto& [port, factor] : snap.capacity_factors) {
    std::string line = "P " + std::to_string(port);
    append_double(line, factor);
    out << line << '\n';
  }
  for (const CoflowRecord& r : snap.completed) {
    std::string line =
        "R " + std::to_string(r.id.value) + ' ' + std::to_string(r.job.value) +
        ' ' + std::to_string(r.stage) + ' ' + std::to_string(r.arrival) +
        ' ' + std::to_string(r.finish) + ' ' + std::to_string(r.width) + ' ' +
        std::to_string(r.total_bytes) + ' ' +
        std::to_string(static_cast<int>(r.equal_flow_lengths)) + ' ' +
        std::to_string(r.flow_fcts_seconds.size());
    for (const double fct : r.flow_fcts_seconds) append_double(line, fct);
    for (const double sz : r.flow_sizes) append_double(line, sz);
    out << line << '\n';
  }
  out << "END\n";
  out.flush();
}

EngineSnapshot load_checkpoint(std::istream& in) {
  EngineSnapshot snap;
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("checkpoint: empty stream");
  }
  {
    std::istringstream ss(line);
    std::string magic;
    ss >> magic;
    if (magic != "SAATHC1") {
      throw std::runtime_error("checkpoint: bad magic '" + magic + "'");
    }
    std::string tok;
    if (!(ss >> tok)) throw std::runtime_error("checkpoint: truncated header");
    snap.num_ports = static_cast<int>(parse_int(tok));
    std::getline(ss, snap.scheduler);
    if (!snap.scheduler.empty() && snap.scheduler.front() == ' ') {
      snap.scheduler.erase(0, 1);
    }
  }
  if (!std::getline(in, line) || line.rfind("T ", 0) != 0) {
    throw std::runtime_error("checkpoint: missing trace line");
  }
  snap.trace = line.substr(2);
  Cursor c{in, {}};
  c.expect_tag("H");
  snap.now = c.i64();
  snap.rounds = c.i32();
  snap.epochs = c.i64();
  snap.next_flow_id = c.i64();
  snap.source_events_consumed = c.i64();
  snap.last_source_time = c.i64();
  snap.last_arrival_id = c.i64();
  snap.makespan = c.i64();
  c.expect_tag("N");
  const std::int64_t n_active = c.i64();
  const std::int64_t n_quar = c.i64();
  const std::int64_t n_gates = c.i64();
  const std::int64_t n_inj = c.i64();
  const std::int64_t n_dyn = c.i64();
  const std::int64_t n_factors = c.i64();
  const std::int64_t n_done = c.i64();
  if (n_active < 0 || n_quar < 0 || n_gates < 0 || n_inj < 0 || n_dyn < 0 ||
      n_factors < 0 || n_done < 0) {
    throw std::runtime_error("checkpoint: negative section count");
  }
  // Only the retired engine side channels could fill these two sections;
  // this engine has nowhere to restore them to.
  if (n_inj != 0) {
    throw std::runtime_error(
        "checkpoint: injected-arrival section is no longer supported (" +
        std::to_string(n_inj) + " entries)");
  }
  if (n_dyn != 0) {
    throw std::runtime_error(
        "checkpoint: pending-dynamics section is no longer supported (" +
        std::to_string(n_dyn) + " entries)");
  }
  snap.active.reserve(static_cast<std::size_t>(n_active));
  for (std::int64_t i = 0; i < n_active; ++i) {
    snap.active.push_back(read_coflow(c));
  }
  for (std::int64_t i = 0; i < n_quar; ++i) {
    c.expect_tag("Q");
    QuarantineSnapshot qs;
    qs.release_at = c.i64();
    qs.coflow = read_coflow(c);
    snap.quarantined.push_back(std::move(qs));
  }
  for (std::int64_t i = 0; i < n_gates; ++i) {
    c.expect_tag("G");
    const std::int64_t id = c.i64();
    const SimTime when = c.i64();
    snap.data_gates.emplace_back(id, when);
  }
  for (std::int64_t i = 0; i < n_factors; ++i) {
    c.expect_tag("P");
    const auto port = static_cast<PortIndex>(c.i64());
    snap.capacity_factors.emplace_back(port, c.f64());
  }
  for (std::int64_t i = 0; i < n_done; ++i) {
    c.expect_tag("R");
    CoflowRecord r;
    r.id = CoflowId{c.i64()};
    r.job = JobId{c.i64()};
    r.stage = c.i32();
    r.arrival = c.i64();
    r.finish = c.i64();
    r.width = c.i32();
    r.total_bytes = c.i64();
    r.equal_flow_lengths = c.flag();
    const std::int64_t nf = c.i64();
    if (nf < 0) throw std::runtime_error("checkpoint: negative fct count");
    for (std::int64_t k = 0; k < nf; ++k) {
      r.flow_fcts_seconds.push_back(c.f64());
    }
    for (std::int64_t k = 0; k < nf; ++k) {
      r.flow_sizes.push_back(c.f64());
    }
    snap.completed.push_back(std::move(r));
  }
  c.expect_tag("END");
  return snap;
}

}  // namespace saath::replay
