#include "trace/fb_format.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>

#include "common/tokens.h"

namespace saath::trace {

Trace parse_fb_trace(std::istream& in, std::string name) {
  Trace trace;
  trace.name = std::move(name);
  std::string line;
  std::int64_t line_no = 0;
  // The cursor over the next non-blank line, which must hold `what`.
  const auto next_line = [&](const std::string& what) {
    while (std::getline(in, line)) {
      const Tokens t(line, "fb trace", ++line_no);
      if (!Tokens(t).next().empty()) return t;
    }
    throw std::runtime_error("fb trace: the input ends before " + what);
  };
  Tokens header = next_line("the header");
  trace.num_ports = header.take_int_field("port count");
  const std::int64_t num_coflows = header.take_int();
  if (trace.num_ports <= 0 || num_coflows < 0) {
    throw header.error("non-positive header");
  }

  // A line accepts ports 0..num_ports; the shift below settles 0- or
  // 1-based, and `top_port_line` is where num_ports itself first appeared.
  PortIndex min_port = trace.num_ports;
  PortIndex max_port = 0;
  std::int64_t top_port_line = 0;
  const auto port = [&](const Tokens& t, std::int64_t p) {
    if (p < 0 || p > trace.num_ports) {
      throw t.error("port outside the fabric " + std::to_string(p));
    }
    const auto q = static_cast<PortIndex>(p);
    if (q == trace.num_ports && top_port_line == 0) top_port_line = line_no;
    min_port = std::min(min_port, q);
    max_port = std::max(max_port, q);
    return q;
  };

  std::vector<PortIndex> mappers;
  for (std::int64_t i = 0; i < num_coflows; ++i) {
    Tokens t = next_line("coflow " + std::to_string(i + 1) + " of " +
                         std::to_string(num_coflows));
    CoflowSpec c;
    c.id = CoflowId{t.take_int()};
    const std::int64_t arrival_ms = t.take_int();
    if (arrival_ms < 0 ||
        arrival_ms > std::numeric_limits<SimTime>::max() / 1000) {
      throw t.error("arrival out of range " + std::to_string(arrival_ms));
    }
    c.arrival = msec(arrival_ms);
    const std::int64_t num_mappers = t.take_int();
    if (num_mappers <= 0) throw t.error("non-positive mapper count");
    mappers.clear();
    for (std::int64_t m = 0; m < num_mappers; ++m) {
      mappers.push_back(port(t, t.take_int()));
    }
    const std::int64_t num_reducers = t.take_int();
    if (num_reducers <= 0) throw t.error("non-positive reducer count");
    for (std::int64_t r = 0; r < num_reducers; ++r) {
      const std::string_view token = t.take();
      const std::size_t colon = token.find(':');
      const auto reducer = parse_int(token.substr(0, colon));
      const auto total_mb = colon == std::string_view::npos
                                ? std::nullopt
                                : parse_double(token.substr(colon + 1));
      if (!reducer || !total_mb) {
        throw t.error("bad reducer token '" + std::string(token) + "'");
      }
      // All-to-all mesh: each mapper contributes an equal share of the
      // reducer's total shuffle bytes, which must fit Bytes.
      const double per_flow = *total_mb * static_cast<double>(kMB) /
                              static_cast<double>(num_mappers);
      if (!(per_flow >= 0 && per_flow < 0x1p63)) {
        throw t.error("reducer size out of range '" + std::string(token) +
                      "'");
      }
      const PortIndex dst = port(t, *reducer);
      const Bytes size = std::max<Bytes>(std::llround(per_flow), 1);
      for (const PortIndex m : mappers) c.flows.push_back({m, dst, size});
    }
    trace.coflows.push_back(std::move(c));
  }

  // The public benchmark numbers ports 1..N; programmatic traces use 0..N-1.
  if (!trace.coflows.empty() && min_port >= 1 && max_port >= trace.num_ports) {
    for (auto& c : trace.coflows) {
      for (auto& f : c.flows) {
        f.src -= 1;
        f.dst -= 1;
      }
    }
  } else if (top_port_line != 0) {
    throw std::runtime_error("fb trace line " + std::to_string(top_port_line) +
                             ": port " + std::to_string(trace.num_ports) +
                             " outside the fabric of a 0-based trace");
  }

  trace.normalize();
  return trace;
}

Trace load_fb_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return parse_fb_trace(in, path);
}

void write_fb_trace(std::ostream& out, const Trace& trace) {
  out << trace.num_ports << ' ' << trace.coflows.size() << '\n';
  for (const auto& c : trace.coflows) {
    std::set<PortIndex> mappers;
    std::map<PortIndex, double> reducer_mb;
    for (const auto& f : c.flows) {
      mappers.insert(f.src);
      reducer_mb[f.dst] += static_cast<double>(f.size) / static_cast<double>(kMB);
    }
    out << c.id.value << ' ' << c.arrival / 1000 << ' ' << mappers.size();
    for (PortIndex m : mappers) out << ' ' << m;
    out << ' ' << reducer_mb.size();
    for (const auto& [port, mb] : reducer_mb) out << ' ' << port << ':' << mb;
    out << '\n';
  }
}

}  // namespace saath::trace
