#include "replay/checkpoint.h"

#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/tokens.h"
#include "replay/journal.h"

namespace saath::replay {

namespace {

/// Reads a checkpoint one record per line; blank lines are skipped and
/// tokens after a record ignored, as in the journal.
struct Lines {
  std::istream& in;
  std::string line;
  std::int64_t line_no = 0;

  /// The cursor past the next record's tag, which must be `tag`; valid
  /// until the next call.
  [[nodiscard]] Tokens expect(std::string_view tag) {
    while (std::getline(in, line)) {
      Tokens t(line, "checkpoint", ++line_no);
      const std::string_view got = t.next();
      if (got.empty()) continue;
      if (got != tag) {
        throw t.error("expected '" + std::string(tag) + "', got '" +
                      std::string(got) + "'");
      }
      return t;
    }
    throw std::runtime_error("checkpoint: truncated before '" +
                             std::string(tag) + "'");
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
    append_hexfloat(line, fs.sent_base);
    append_hexfloat(line, fs.rate);
    line += ' ' + std::to_string(fs.anchor) + ' ' +
            std::to_string(fs.predicted_finish) + ' ' +
            std::to_string(static_cast<int>(fs.finished)) + ' ' +
            std::to_string(fs.finish_time);
    out << line << '\n';
  }
}

[[nodiscard]] CoflowSnapshot read_coflow(Lines& lines, int num_ports) {
  CoflowSnapshot cs;
  Tokens k = lines.expect("K");
  cs.first_flow_id = k.take_int();
  cs.queue_index = k.take_int_field("queue index");
  // The upper bound is the scheduler's: its arrival hook refuses a queue it
  // does not have.
  if (cs.queue_index < 0) throw k.error("negative queue index");
  (void)k.take_int();  // retired slot, see checkpoint.h
  cs.deadline = k.take_int();
  cs.dynamics_flagged = k.take_int() != 0;
  cs.data_available = k.take_int() != 0;
  cs.stall_rounds = k.take_int_field("stall rounds");
  cs.requeue_attempts = k.take_int_field("requeue attempts");
  Tokens s = lines.expect("S");
  cs.spec.id = CoflowId{s.take_int()};
  cs.spec.arrival = s.take_int();
  cs.spec.job = JobId{s.take_int()};
  cs.spec.stage = s.take_int_field("stage");
  take_flows(s, cs.spec.flows);
  if (const char* defect = spec_defect(cs.spec, num_ports)) {
    throw s.error(defect);
  }
  cs.flows.reserve(cs.spec.flows.size());
  for (std::size_t i = 0; i < cs.spec.flows.size(); ++i) {
    Tokens f = lines.expect("F");
    FlowSnapshot fs;
    fs.sent_base = f.take_double();
    fs.rate = f.take_double();
    if (!std::isfinite(fs.sent_base) || fs.sent_base < 0) {
      throw f.error("sent bytes negative or not finite");
    }
    if (fs.sent_base > static_cast<double>(cs.spec.flows[i].size)) {
      throw f.error("sent bytes above the flow size");
    }
    if (!std::isfinite(fs.rate) || fs.rate < 0) {
      throw f.error("flow rate negative or not finite");
    }
    fs.anchor = f.take_int();
    fs.predicted_finish = f.take_int();
    fs.finished = f.take_int() != 0;
    fs.finish_time = f.take_int();
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
    append_hexfloat(line, factor);
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
    for (const double fct : r.flow_fcts_seconds) append_hexfloat(line, fct);
    for (const double sz : r.flow_sizes) append_hexfloat(line, sz);
    out << line << '\n';
  }
  out << "END\n";
  out.flush();
}

EngineSnapshot load_checkpoint(std::istream& in) {
  EngineSnapshot snap;
  Lines lines{in, {}};
  Tokens header = lines.expect("SAATHC1");
  snap.num_ports = header.take_int_field("port count");
  snap.scheduler = header.rest();
  snap.trace = lines.expect("T").rest();
  Tokens h = lines.expect("H");
  snap.now = h.take_int();
  snap.rounds = h.take_int_field("rounds");
  snap.epochs = h.take_int();
  snap.next_flow_id = h.take_int();
  snap.source_events_consumed = h.take_int();
  snap.last_source_time = h.take_int();
  snap.last_arrival_id = h.take_int();
  snap.makespan = h.take_int();
  Tokens n = lines.expect("N");
  const std::int64_t n_active = n.take_int();
  const std::int64_t n_quar = n.take_int();
  const std::int64_t n_gates = n.take_int();
  const std::int64_t n_inj = n.take_int();
  const std::int64_t n_dyn = n.take_int();
  const std::int64_t n_factors = n.take_int();
  const std::int64_t n_done = n.take_int();
  for (const std::int64_t count :
       {n_active, n_quar, n_gates, n_inj, n_dyn, n_factors, n_done}) {
    if (count < 0) throw n.error("negative section count");
  }
  // Only the retired engine side channels could fill these two sections;
  // this engine has nowhere to restore them to.
  if (n_inj != 0) {
    throw n.error("injected-arrival section is no longer supported (" +
                  std::to_string(n_inj) + " entries)");
  }
  if (n_dyn != 0) {
    throw n.error("pending-dynamics section is no longer supported (" +
                  std::to_string(n_dyn) + " entries)");
  }
  for (std::int64_t i = 0; i < n_active; ++i) {
    snap.active.push_back(read_coflow(lines, snap.num_ports));
  }
  for (std::int64_t i = 0; i < n_quar; ++i) {
    QuarantineSnapshot qs;
    qs.release_at = lines.expect("Q").take_int();
    qs.coflow = read_coflow(lines, snap.num_ports);
    snap.quarantined.push_back(std::move(qs));
  }
  for (std::int64_t i = 0; i < n_gates; ++i) {
    Tokens g = lines.expect("G");
    const std::int64_t id = g.take_int();
    snap.data_gates.emplace_back(id, g.take_int());
  }
  for (std::int64_t i = 0; i < n_factors; ++i) {
    Tokens p = lines.expect("P");
    const PortIndex port = p.take_port();
    if (port < 0 || port >= snap.num_ports) {
      throw p.error("port outside the fabric " + std::to_string(port));
    }
    const double factor = p.take_double();
    if (!(factor >= 0.0 && factor <= 1.0)) {
      throw p.error("capacity factor outside [0, 1]");
    }
    snap.capacity_factors.emplace_back(port, factor);
  }
  for (std::int64_t i = 0; i < n_done; ++i) {
    Tokens t = lines.expect("R");
    CoflowRecord r;
    r.id = CoflowId{t.take_int()};
    r.job = JobId{t.take_int()};
    r.stage = t.take_int_field("stage");
    r.arrival = t.take_int();
    r.finish = t.take_int();
    r.width = t.take_int_field("width");
    r.total_bytes = t.take_int();
    r.equal_flow_lengths = t.take_int() != 0;
    const std::int64_t nf = t.take_int();
    if (nf < 0) throw t.error("negative fct count");
    for (std::int64_t k = 0; k < nf; ++k) {
      r.flow_fcts_seconds.push_back(t.take_double());
    }
    for (std::int64_t k = 0; k < nf; ++k) {
      r.flow_sizes.push_back(t.take_double());
    }
    snap.completed.push_back(std::move(r));
  }
  (void)lines.expect("END");
  return snap;
}

}  // namespace saath::replay
