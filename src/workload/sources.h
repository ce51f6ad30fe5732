// Concrete WorkloadSources: trace replay, scripted events, and the
// streaming synthetic generator.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "trace/synth.h"
#include "trace/trace.h"
#include "workload/source.h"

namespace saath::workload {

/// Replays a materialized Trace as an arrival stream in (arrival, id) order
/// — the order the source ordering invariant asks for; Engine(Trace) is a
/// thin wrapper over this source.
class TraceSource : public WorkloadSource {
 public:
  /// Owning: emitted specs are moved out of the trace, never copied.
  explicit TraceSource(trace::Trace trace);
  /// Sharing: several sources (e.g. a ScaleArrivals sweep) replay the same
  /// trace without duplicating it; each emission copies one spec, so live
  /// memory stays O(1) per pending arrival rather than O(trace).
  explicit TraceSource(std::shared_ptr<const trace::Trace> trace);

  /// view_ points into owned_ for the owning variant — pinned in place.
  TraceSource(const TraceSource&) = delete;
  TraceSource& operator=(const TraceSource&) = delete;

  [[nodiscard]] std::string name() const override { return view_->name; }
  [[nodiscard]] int num_ports() const override { return view_->num_ports; }
  [[nodiscard]] SimTime peek_next_time() override;
  [[nodiscard]] WorkloadEvent next() override;

 private:
  void build_order();

  trace::Trace owned_;
  std::shared_ptr<const trace::Trace> shared_;
  const trace::Trace* view_ = nullptr;
  std::vector<std::uint32_t> order_;  // indices sorted by (arrival, id)
  std::size_t cursor_ = 0;
};

/// A fixed list of events (typically dynamics / data-availability flips)
/// replayed in time order; the scripted half of a scenario, merged with a
/// coflow source via MergeSource. Events are stable-sorted by time at
/// construction (insertion order preserved on ties, which is the order the
/// engine applies same-time dynamics in); arrival events at equal times
/// must be added in ascending id order.
class ScriptSource : public WorkloadSource {
 public:
  ScriptSource(std::string name, int num_ports,
               std::vector<WorkloadEvent> events);

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] int num_ports() const override { return num_ports_; }
  [[nodiscard]] SimTime peek_next_time() override;
  [[nodiscard]] WorkloadEvent next() override;

 private:
  std::string name_;
  int num_ports_ = 0;
  std::vector<WorkloadEvent> events_;
  std::size_t cursor_ = 0;
};

/// Streaming synthetic workload: CoFlows are drawn on demand from the Fig-2
/// distributions (trace::CoflowSampler) over a Poisson-with-bursts arrival
/// process. Unbounded horizon: with num_coflows < 0 the source never
/// exhausts and the run is bounded by the caller (SimConfig::max_sim_time or
/// an external event budget). Memory is O(1) per pending arrival — nothing
/// is materialized beyond the spec being emitted.
struct SynthStreamConfig {
  /// Mesh/size/port marginals (arrival-process fields of SynthConfig are
  /// ignored; the stream uses the gap process below).
  trace::SynthConfig shape;
  trace::SizeBands bands;
  /// Mean exponential inter-arrival gap of the background process.
  SimTime mean_gap = msec(60);
  /// With probability p_burst the next gap is drawn at the burst scale
  /// instead — the streaming stand-in for the batch generator's job waves.
  double p_burst = 0.5;
  SimTime burst_gap = msec(2);
  /// CoFlows to emit; < 0 = unbounded.
  std::int64_t num_coflows = -1;
  std::uint64_t seed = 1;
  std::string name = "synth-stream";
};

class SynthSource : public WorkloadSource {
 public:
  explicit SynthSource(SynthStreamConfig config);

  [[nodiscard]] std::string name() const override { return config_.name; }
  [[nodiscard]] int num_ports() const override {
    return config_.shape.num_ports;
  }
  [[nodiscard]] SimTime peek_next_time() override;
  [[nodiscard]] WorkloadEvent next() override;

  [[nodiscard]] std::int64_t emitted() const { return next_id_; }

 private:
  /// Draws the next arrival instant + body into lookahead_ (one CoFlow of
  /// buffered state — peek needs the arrival time before the engine pops).
  void refill();

  SynthStreamConfig config_;
  trace::CoflowSampler sampler_;
  Rng rng_;
  SimTime clock_ = 0;
  std::int64_t next_id_ = 0;
  bool lookahead_valid_ = false;
  CoflowSpec lookahead_;
};

/// Drains `source` into a materialized Trace (arrival events only; asserts
/// on dynamics/data events). With max_events >= 0, stops after that many.
/// The inverse adapter of TraceSource: SynthSource(cfg) streamed into the
/// engine and TraceSource(materialize_arrivals(SynthSource(cfg))) must
/// produce identical runs — the seeded-equivalence property the tests pin.
[[nodiscard]] trace::Trace materialize_arrivals(WorkloadSource& source,
                                                std::int64_t max_events = -1);

}  // namespace saath::workload
