// Reader/writer for the public Facebook coflow-benchmark format
// (github.com/coflow/coflow-benchmark), so the genuine FB trace can be
// dropped into every experiment unchanged.
//
// Format:
//   line 1:  <num_ports> <num_coflows>
//   per coflow:
//     <id> <arrival_ms> <num_mappers> <m_1> ... <m_M>
//                      <num_reducers> <r_1>:<MB_1> ... <r_R>:<MB_R>
//
// Mapper entries are sender port indices; each reducer entry gives its
// receiver port and the total shuffle megabytes it ingests. The benchmark's
// convention (also used by coflowsim) expands this to an all-to-all mesh:
// every mapper sends size MB_j / M to reducer j.
//
// The reader takes one coflow per line through common/tokens.h. Ports lie
// in 0..num_ports; a file whose ports all lie in 1..num_ports (the public
// benchmark's numbering) shifts down by one. A reducer token is exactly
// <port>:<MB>, with a non-negative MB whose per-flow share fits Bytes.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.h"

namespace saath::trace {

/// Parses a trace in coflow-benchmark format. Throws std::runtime_error
/// naming the line ("fb trace line N: ...") on malformed input, or naming
/// the count when the input ends before the header's coflows do.
[[nodiscard]] Trace parse_fb_trace(std::istream& in, std::string name = "fb");

[[nodiscard]] Trace load_fb_trace_file(const std::string& path);

/// Serializes a trace to the same format. Flows must form mapper->reducer
/// meshes for an exact round-trip; arbitrary traces are written as one
/// synthetic mapper per sender port.
void write_fb_trace(std::ostream& out, const Trace& trace);

}  // namespace saath::trace
