// Trace model and helpers.
//
// A Trace is a port count plus a list of CoflowSpecs sorted by arrival.
// Traces come from three places: the public Facebook coflow-benchmark file
// format (fb_format.h), the synthetic generators (synth.h), or programmatic
// construction in tests/examples.
#pragma once

#include <string>
#include <vector>

#include "coflow/coflow.h"

namespace saath::trace {

struct Trace {
  std::string name;
  int num_ports = 0;
  std::vector<CoflowSpec> coflows;

  [[nodiscard]] Bytes total_bytes() const;

  /// Normalizes the trace: sorts by arrival, re-ids coflows densely from 0,
  /// and checks each coflow with spec_defect. Throws std::invalid_argument
  /// naming the defect.
  void normalize();

  /// Returns a copy with every arrival divided by `factor` — the paper's
  /// Fig 14(d) "arrival time scaling A" knob (A>1 means A× faster arrivals).
  [[nodiscard]] Trace scaled_arrivals(double factor) const;
};

/// Aggregate statistics used by Fig 2(a)/(b) and the generator self-checks.
struct TraceStats {
  int num_coflows = 0;
  double frac_single_flow = 0;
  double frac_multi_equal = 0;    // multi-flow, all flows the same length
  double frac_multi_unequal = 0;  // multi-flow, uneven lengths
  std::vector<double> widths;     // per-coflow flow counts
  std::vector<double> norm_flow_len_stddev;  // per multi-flow coflow
};

[[nodiscard]] TraceStats compute_stats(const Trace& trace);

/// True when every flow of the coflow has the same byte count (within 0.1%).
[[nodiscard]] bool has_equal_flow_lengths(const CoflowSpec& coflow);

}  // namespace saath::trace
