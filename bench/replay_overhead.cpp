// Recording-layer overhead bench: runs the same synthetic churn workload
// bare and wrapped in a replay::RecordingSource (journaling every consumed
// event to disk with a per-event flush), and gates that the capture tax
// stays small — always-on recording is only viable if the journal layer is
// nearly free next to the scheduling work. Also times a ReplaySource-driven
// re-run and checks its digest against the recorded run (the bit-identity
// contract, exercised at bench scale). Then times the ingest primitives
// over the recorded journal: parsing its event lines, formatting the
// parsed events back, and building a CoflowState from each arrival's spec.
// Emits BENCH_replay.json:
//
//   record_overhead       recorded wall / bare wall - 1 (gate <= 0.15)
//   replay_speedup        bare wall / replay wall (replay skips generation)
//   digest_match          recorded and replayed result digests agree
//   parse_ns_per_event    parse_event_line over the journal's event lines
//   format_ns_per_event   format_event_line over the parsed events
//   build_ns_per_flow     CoflowState construction over the arrivals'
//                         specs, 300 kept live, per flow
// Each ingest row is {median, min, max} over kIngestReps passes.
//
// Exits non-zero when a gate fails, so CI can call it directly.
//
//   $ ./replay_overhead --coflows 30000 --out BENCH_replay.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "coflow/coflow.h"
#include "replay/journal.h"
#include "sched/factory.h"
#include "sim/engine.h"
#include "workload/sources.h"

using namespace saath;

namespace {

workload::SynthStreamConfig stream_config(std::int64_t coflows) {
  workload::SynthStreamConfig cfg;
  cfg.name = "replay-bench";
  cfg.num_coflows = coflows;
  cfg.seed = 23;
  cfg.shape.num_ports = 128;
  cfg.shape.port_zipf = 0.0;
  cfg.shape.p_single = 0.7;
  cfg.shape.p_narrow_given_multi = 0.9;
  cfg.shape.p_small_given_narrow = 0.95;
  cfg.shape.p_small_given_wide = 0.9;
  cfg.mean_gap = usec(500);
  cfg.p_burst = 0.1;
  cfg.burst_gap = usec(150);
  cfg.bands.small_lo = 1.0 * kMB;
  cfg.bands.small_hi = 8.0 * kMB;
  cfg.bands.large_lo = 8.0 * kMB;
  cfg.bands.large_hi = 64.0 * kMB;
  return cfg;
}

struct Timed {
  SimResult result;
  double wall_s = 0;
};

template <typename MakeSource>
Timed run_once(MakeSource&& make_source, const SimConfig& cfg) {
  auto scheduler = make_scheduler("saath");
  Engine engine(make_source(), *scheduler, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  Timed out;
  out.result = engine.run();
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One ingest primitive timed over kIngestReps passes, in ns per unit.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

constexpr int kIngestReps = 5;

template <typename Pass>
Spread time_passes(double units, Pass&& pass) {
  std::vector<double> ns;
  for (int r = 0; r < kIngestReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    pass();
    ns.push_back(seconds_since(t0) * 1e9 / units);
  }
  std::sort(ns.begin(), ns.end());
  return {ns[ns.size() / 2], ns.front(), ns.back()};
}

std::string spread_json(const Spread& s) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "{\"median\": %.1f, \"min\": %.1f, \"max\": %.1f}",
                s.median, s.min, s.max);
  return buf;
}

struct Ingest {
  std::int64_t events = 0;
  std::int64_t flows = 0;
  Spread parse;
  Spread format;
  Spread build;
  std::uint64_t checksum = 0;  // keeps the timed work observable
};

/// Times the ingest primitives over the event lines of `journal_path`.
Ingest time_ingest(const std::string& journal_path) {
  std::ifstream in(journal_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  lines.erase(lines.begin(), lines.begin() + 2);  // header and config
  std::vector<workload::WorkloadEvent> events;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    auto ev = replay::parse_event_line(lines[i], static_cast<std::int64_t>(i));
    if (ev.has_value()) events.push_back(std::move(*ev));
  }
  Ingest out;
  out.events = static_cast<std::int64_t>(events.size());
  for (const auto& ev : events) {
    out.flows += static_cast<std::int64_t>(ev.coflow.flows.size());
  }
  out.parse = time_passes(static_cast<double>(out.events), [&] {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const auto ev =
          replay::parse_event_line(lines[i], static_cast<std::int64_t>(i));
      if (ev.has_value()) out.checksum += static_cast<std::uint64_t>(ev->time);
    }
  });
  out.format = time_passes(static_cast<double>(out.events), [&] {
    for (const auto& ev : events) {
      out.checksum += replay::format_event_line(ev).size();
    }
  });
  out.build = time_passes(static_cast<double>(out.flows), [&] {
    std::deque<CoflowState> live;
    FlowId next{0};
    for (const auto& ev : events) {
      if (ev.kind != workload::WorkloadEvent::Kind::kArrival) continue;
      if (live.size() == 300) live.pop_front();
      const CoflowState& c = live.emplace_back(ev.coflow, next);
      next.value += c.width();
      out.checksum += c.sender_loads().size();
    }
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t coflows = 30'000;
  std::string out_path = "BENCH_replay.json";
  std::string journal_path = "BENCH_replay.journal";
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--coflows") == 0) coflows = std::atoll(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
    if (std::strcmp(argv[i], "--journal") == 0) journal_path = argv[i + 1];
  }
  out_path = bench::bench_out_path(out_path);

  SimConfig cfg;
  cfg.max_sim_time = seconds(4'000'000);

  // Bare run: the denominator.
  const Timed bare = run_once(
      [&] {
        return std::make_shared<workload::SynthSource>(stream_config(coflows));
      },
      cfg);

  // Recorded run: same workload through the journaling wrapper, flushing
  // every event to a real file (the crash-durability configuration).
  std::ofstream journal_out(journal_path, std::ios::trunc);
  const Timed recorded = run_once(
      [&] {
        return std::make_shared<replay::RecordingSource>(
            std::make_shared<workload::SynthSource>(stream_config(coflows)),
            journal_out, cfg, 23);
      },
      cfg);
  journal_out.close();

  // Replayed run: journal in, generation cost gone.
  std::ifstream journal_in(journal_path);
  const Timed replayed = run_once(
      [&] { return std::make_shared<replay::ReplaySource>(journal_in); }, cfg);

  const double overhead =
      bare.wall_s == 0 ? 0 : recorded.wall_s / bare.wall_s - 1.0;
  const double replay_speedup =
      replayed.wall_s == 0 ? 0 : bare.wall_s / replayed.wall_s;
  const bool digest_match = replay::result_digest(recorded.result) ==
                            replay::result_digest(replayed.result);
  // The journaling wrapper must also not perturb the run itself.
  const bool record_transparent = replay::result_digest(bare.result) ==
                                  replay::result_digest(recorded.result);
  const bool overhead_ok = overhead <= 0.15;

  std::printf(
      "bare %.2fs, recorded %.2fs (overhead %.1f%%, gate <= 15%%: %s), "
      "replayed %.2fs (%.2fx bare)\n",
      bare.wall_s, recorded.wall_s, overhead * 100,
      overhead_ok ? "ok" : "FAIL", replayed.wall_s, replay_speedup);
  std::printf("digests: record %s replay %s -> %s\n",
              replay::result_digest_hex(recorded.result).c_str(),
              replay::result_digest_hex(replayed.result).c_str(),
              digest_match && record_transparent ? "match" : "MISMATCH");

  const Ingest ingest = time_ingest(journal_path);
  std::printf(
      "ingest over %lld events / %lld flows (median [min, max] of %d): parse "
      "%.0f [%.0f, %.0f] ns/event, format %.0f [%.0f, %.0f] ns/event, "
      "build %.1f [%.1f, %.1f] ns/flow (checksum %llu)\n",
      static_cast<long long>(ingest.events),
      static_cast<long long>(ingest.flows), kIngestReps, ingest.parse.median,
      ingest.parse.min, ingest.parse.max, ingest.format.median,
      ingest.format.min, ingest.format.max, ingest.build.median,
      ingest.build.min, ingest.build.max,
      static_cast<unsigned long long>(ingest.checksum));

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"coflows\": " << coflows << ",\n"
      << "  \"bare_wall_s\": " << bare.wall_s << ",\n"
      << "  \"recorded_wall_s\": " << recorded.wall_s << ",\n"
      << "  \"replayed_wall_s\": " << replayed.wall_s << ",\n"
      << "  \"record_overhead\": " << overhead << ",\n"
      << "  \"replay_speedup\": " << replay_speedup << ",\n"
      << "  \"digest_match\": " << (digest_match ? "true" : "false") << ",\n"
      << "  \"record_transparent\": "
      << (record_transparent ? "true" : "false") << ",\n"
      << "  \"ingest_events\": " << ingest.events << ",\n"
      << "  \"ingest_flows\": " << ingest.flows << ",\n"
      << "  \"parse_ns_per_event\": " << spread_json(ingest.parse) << ",\n"
      << "  \"format_ns_per_event\": " << spread_json(ingest.format) << ",\n"
      << "  \"build_ns_per_flow\": " << spread_json(ingest.build) << "\n"
      << "}\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (!digest_match || !record_transparent) {
    std::fprintf(stderr, "FAIL: replay digest diverged from the recording\n");
    return 1;
  }
  if (!overhead_ok) {
    std::fprintf(stderr,
                 "FAIL: recording overhead %.1f%% exceeds the 15%% gate\n",
                 overhead * 100);
    return 1;
  }
  return 0;
}
