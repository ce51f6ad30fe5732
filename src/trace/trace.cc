#include "trace/trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/expect.h"
#include "common/stats.h"

namespace saath::trace {

Bytes Trace::total_bytes() const {
  Bytes sum = 0;
  for (const auto& c : coflows) sum += c.total_bytes();
  return sum;
}

void Trace::normalize() {
  if (num_ports <= 0) throw std::invalid_argument("Trace: num_ports must be > 0");
  std::stable_sort(coflows.begin(), coflows.end(),
                   [](const CoflowSpec& a, const CoflowSpec& b) {
                     return a.arrival < b.arrival;
                   });
  std::int64_t next_id = 0;
  for (auto& c : coflows) {
    if (const char* defect = spec_defect(c, num_ports)) {
      throw std::invalid_argument(std::string("Trace: ") + defect);
    }
    c.id = CoflowId{next_id++};
  }
}

Trace Trace::scaled_arrivals(double factor) const {
  SAATH_EXPECTS(factor > 0);
  Trace out = *this;
  for (auto& c : out.coflows) {
    c.arrival = static_cast<SimTime>(std::llround(
        static_cast<double>(c.arrival) / factor));
  }
  return out;
}

bool has_equal_flow_lengths(const CoflowSpec& coflow) {
  if (coflow.flows.size() <= 1) return true;
  const Bytes first = coflow.flows.front().size;
  for (const auto& f : coflow.flows) {
    const double lo = static_cast<double>(first) * 0.999;
    const double hi = static_cast<double>(first) * 1.001;
    if (static_cast<double>(f.size) < lo || static_cast<double>(f.size) > hi) {
      return false;
    }
  }
  return true;
}

TraceStats compute_stats(const Trace& trace) {
  TraceStats s;
  s.num_coflows = static_cast<int>(trace.coflows.size());
  int single = 0;
  int equal = 0;
  int unequal = 0;
  for (const auto& c : trace.coflows) {
    s.widths.push_back(static_cast<double>(c.width()));
    if (c.width() == 1) {
      ++single;
      continue;
    }
    std::vector<double> lens;
    lens.reserve(c.flows.size());
    for (const auto& f : c.flows) lens.push_back(static_cast<double>(f.size));
    s.norm_flow_len_stddev.push_back(normalized_stddev(lens));
    if (has_equal_flow_lengths(c)) {
      ++equal;
    } else {
      ++unequal;
    }
  }
  if (s.num_coflows > 0) {
    const auto n = static_cast<double>(s.num_coflows);
    s.frac_single_flow = single / n;
    s.frac_multi_equal = equal / n;
    s.frac_multi_unequal = unequal / n;
  }
  return s;
}

}  // namespace saath::trace
