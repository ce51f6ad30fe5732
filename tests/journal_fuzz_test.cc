// Deterministic fuzz of the readers outside bytes reach, all built on the
// one tokenizer of common/tokens.h: the journal event-line grammar (A/D/G
// lines; ReplaySource reads journals with it and the service daemon reads
// every client event frame with it), saved checkpoints, FB traces and the
// service's verb frames.
//
// Valid lines are formatted from random events and then mutated, seeded
// with splitmix64 as FaultySource seeds its faults: byte flips,
// truncations, dropped and duplicated tokens, digit runs past int64,
// signs, tabs, carriage returns and NUL bytes. Properties:
//   * parse_event_line returns an event or nullopt, or throws
//     std::runtime_error; any other exception fails the test;
//   * it agrees, outcome for outcome and message for message, with the
//     reference below: the istringstream/strtoll parser it replaced, plus
//     the three typed rejects (integers past int64, ports past int32, flow
//     counts the line cannot hold);
//   * random valid events round-trip through format_event_line and
//     parse_event_line byte for byte, hexfloat capacity factors included;
//   * a mutated checkpoint (saved from a real engine snapshot) or FB trace
//     (write_fb_trace output) loads or throws std::runtime_error, and a
//     mutated verb frame parses to a Request (kBad when malformed) or a
//     DONE reply to a record or nullopt, never an exception.
// The budget is fixed, so the test runs in a few seconds (more under
// ASan + UBSan) and finds the same inputs every run.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "replay/checkpoint.h"
#include "replay/journal.h"
#include "sched/saath.h"
#include "service/protocol.h"
#include "sim/engine.h"
#include "trace/fb_format.h"
#include "trace/synth.h"
#include "workload/source.h"
#include "workload/sources.h"

namespace saath {
namespace {

using workload::WorkloadEvent;

/// splitmix64 — the generator FaultySource seeds its faults with.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  std::int64_t i64() { return static_cast<std::int64_t>(next()); }
  bool chance(std::uint64_t one_in) { return below(one_in) == 0; }

 private:
  std::uint64_t state_;
};

// ------------------------------------------------------------- reference

[[noreturn]] void reference_fail(std::int64_t line_no,
                                 const std::string& what) {
  throw std::runtime_error("journal line " + std::to_string(line_no) + ": " +
                           what);
}

std::string reference_take(std::istringstream& ss, std::int64_t line_no) {
  std::string tok;
  if (!(ss >> tok)) reference_fail(line_no, "truncated record");
  return tok;
}

std::int64_t reference_int(std::istringstream& ss, std::int64_t line_no) {
  const std::string tok = reference_take(ss, line_no);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (end == tok.c_str() || *end != '\0' || errno == ERANGE) {
    reference_fail(line_no, "bad integer '" + tok + "'");
  }
  return static_cast<std::int64_t>(v);
}

int reference_int_field(std::istringstream& ss, std::int64_t line_no,
                        const std::string& field) {
  const std::int64_t v = reference_int(ss, line_no);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    reference_fail(line_no, field + " out of range " + std::to_string(v));
  }
  return static_cast<int>(v);
}

PortIndex reference_port(std::istringstream& ss, std::int64_t line_no) {
  return reference_int_field(ss, line_no, "port");
}

double reference_double(std::istringstream& ss, std::int64_t line_no) {
  const std::string tok = reference_take(ss, line_no);
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') {
    reference_fail(line_no, "bad double '" + tok + "'");
  }
  return v;
}

/// The event-line parser before the in-place tokenizer, with the typed
/// rejects added and no reserve ahead of the flows.
std::optional<WorkloadEvent> reference_parse(const std::string& line,
                                             std::int64_t line_no) {
  if (line.empty()) return std::nullopt;
  std::istringstream ss(line);
  std::string tag;
  ss >> tag;
  if (tag.empty()) return std::nullopt;
  WorkloadEvent ev;
  if (tag == "A") {
    ev.kind = WorkloadEvent::Kind::kArrival;
    ev.time = reference_int(ss, line_no);
    ev.coflow.id = CoflowId{reference_int(ss, line_no)};
    ev.coflow.job = JobId{reference_int(ss, line_no)};
    ev.coflow.stage = reference_int_field(ss, line_no, "stage");
    ev.coflow.arrival = reference_int(ss, line_no);
    ev.data_ready = reference_int(ss, line_no);
    const std::int64_t n = reference_int(ss, line_no);
    if (n < 0) reference_fail(line_no, "negative flow count");
    for (std::int64_t i = 0; i < n; ++i) {
      FlowSpec f;
      f.src = reference_port(ss, line_no);
      f.dst = reference_port(ss, line_no);
      f.size = reference_int(ss, line_no);
      ev.coflow.flows.push_back(f);
    }
  } else if (tag == "D") {
    ev.kind = WorkloadEvent::Kind::kDynamics;
    ev.time = reference_int(ss, line_no);
    ev.dynamics.time = ev.time;
    const std::int64_t kind = reference_int(ss, line_no);
    if (kind < 0 || kind > 2) {
      reference_fail(line_no, "unknown dynamics kind " + std::to_string(kind));
    }
    ev.dynamics.kind = static_cast<DynamicsEvent::Kind>(kind);
    ev.dynamics.port = reference_port(ss, line_no);
    ev.dynamics.capacity_factor = reference_double(ss, line_no);
  } else if (tag == "G") {
    ev.kind = WorkloadEvent::Kind::kDataAvailable;
    ev.time = reference_int(ss, line_no);
    ev.gated = CoflowId{reference_int(ss, line_no)};
  } else {
    reference_fail(line_no, "unknown event tag '" + tag + "'");
  }
  return ev;
}

// --------------------------------------------------------------- outcomes

/// What a parser made of one line: the event's journal line, "blank", or
/// the message it threw.
struct Outcome {
  enum class Kind { kEvent, kBlank, kRejected } kind = Kind::kBlank;
  std::string text;
};

template <typename Parse>
Outcome outcome_of(Parse&& parse, const std::string& line) {
  try {
    const std::optional<WorkloadEvent> ev = parse(line, 42);
    if (!ev.has_value()) return {Outcome::Kind::kBlank, ""};
    return {Outcome::Kind::kEvent, replay::format_event_line(*ev)};
  } catch (const std::runtime_error& e) {
    return {Outcome::Kind::kRejected, e.what()};
  }
}

/// Printable form of a fuzzed line for failure messages.
std::string escaped(const std::string& line) {
  std::string out;
  for (const char ch : line) {
    const auto u = static_cast<unsigned char>(ch);
    if (u >= 0x20 && u < 0x7f) {
      out += ch;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      out += buf;
    }
  }
  return out;
}

// --------------------------------------------------------------- corpus

/// A double from a random bit pattern (NaNs, infinities and subnormals
/// included) or one of the values dynamics events carry.
double random_factor(SplitMix& rng) {
  switch (rng.below(4)) {
    case 0:
      return 0.0;
    case 1:
      return static_cast<double>(rng.below(1000)) / 64.0;
    default: {
      const std::uint64_t bits = rng.next();
      double v = 0;
      std::memcpy(&v, &bits, sizeof v);
      return v;
    }
  }
}

PortIndex random_port(SplitMix& rng) {
  if (rng.chance(8)) {
    return rng.chance(2) ? std::numeric_limits<PortIndex>::max()
                         : std::numeric_limits<PortIndex>::min();
  }
  return static_cast<PortIndex>(rng.below(300));
}

/// An int64 field: small, or anywhere in the range (the extremes too).
std::int64_t random_field(SplitMix& rng) {
  switch (rng.below(6)) {
    case 0:
      return std::numeric_limits<std::int64_t>::max();
    case 1:
      return std::numeric_limits<std::int64_t>::min();
    case 2:
      return rng.i64();
    default:
      return static_cast<std::int64_t>(rng.below(1u << 20));
  }
}

WorkloadEvent random_event(SplitMix& rng) {
  WorkloadEvent ev;
  switch (rng.below(3)) {
    case 0: {
      ev.kind = WorkloadEvent::Kind::kArrival;
      ev.time = random_field(rng);
      ev.coflow.id = CoflowId{random_field(rng)};
      ev.coflow.job = JobId{random_field(rng)};
      ev.coflow.stage = static_cast<int>(rng.below(5)) - 1;
      ev.coflow.arrival = random_field(rng);
      ev.data_ready = rng.chance(4) ? kNever : random_field(rng);
      const std::uint64_t n = rng.below(7);
      for (std::uint64_t i = 0; i < n; ++i) {
        ev.coflow.flows.push_back(
            {random_port(rng), random_port(rng), random_field(rng)});
      }
      break;
    }
    case 1:
      ev.kind = WorkloadEvent::Kind::kDynamics;
      ev.time = random_field(rng);
      ev.dynamics.time = ev.time;
      ev.dynamics.kind = static_cast<DynamicsEvent::Kind>(rng.below(3));
      ev.dynamics.port = random_port(rng);
      ev.dynamics.capacity_factor = random_factor(rng);
      break;
    default:
      ev.kind = WorkloadEvent::Kind::kDataAvailable;
      ev.time = random_field(rng);
      ev.gated = CoflowId{random_field(rng)};
      break;
  }
  return ev;
}

/// [begin, end) of each space-separated token of a formatted line.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(
    const std::string& line) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) spans.emplace_back(start, i);
  }
  return spans;
}

/// One mutation of `line`, picked by `rng`.
void mutate(std::string& line, SplitMix& rng) {
  if (line.empty()) {
    line += static_cast<char>(rng.below(256));
    return;
  }
  const auto spans = token_spans(line);
  const auto pick_token = [&]() { return spans[rng.below(spans.size())]; };
  switch (rng.below(10)) {
    case 0: {  // flip a byte
      const std::size_t at = rng.below(line.size());
      const auto flip = static_cast<char>(1 + rng.below(255));
      line[at] = static_cast<char>(line[at] ^ flip);
      break;
    }
    case 1:  // truncate
      line.resize(rng.below(line.size()));
      break;
    case 2: {  // drop a token
      if (spans.empty()) break;
      const auto [b, e] = pick_token();
      line.erase(b, e - b);
      break;
    }
    case 3: {  // duplicate a token
      if (spans.empty()) break;
      const auto [b, e] = pick_token();
      line.insert(e, " " + line.substr(b, e - b));
      break;
    }
    case 4: {  // a digit run, often past int64, in place of a token
      if (spans.empty()) break;
      const auto [b, e] = pick_token();
      std::string digits = rng.chance(3) ? "-" : "";
      digits += static_cast<char>('1' + rng.below(9));
      const std::uint64_t len = 15 + rng.below(15);
      for (std::uint64_t k = 0; k < len; ++k) {
        digits += static_cast<char>('0' + rng.below(10));
      }
      line.replace(b, e - b, digits);
      break;
    }
    case 5: {  // signs in front of a token
      if (spans.empty()) break;
      static const char* const kSigns[] = {"+", "-", "+-", "-+", "++", "--"};
      line.insert(pick_token().first, kSigns[rng.below(6)]);
      break;
    }
    case 6: {  // a separator becomes other whitespace
      static const char kSpace[] = {'\t', '\r', '\v', '\f', '\n', ' '};
      const std::size_t at = rng.below(line.size());
      if (line[at] == ' ') {
        line[at] = kSpace[rng.below(sizeof kSpace)];
      } else {
        line.insert(at, 1, kSpace[rng.below(sizeof kSpace)]);
      }
      break;
    }
    case 7:  // a trailing carriage return or stray token
      line += rng.chance(2) ? "\r" : " 7";
      break;
    case 8: {  // a NUL byte inside a token
      if (spans.empty()) break;
      const auto [b, e] = pick_token();
      line.insert(b + rng.below(e - b + 1), 1, '\0');
      break;
    }
    default: {  // a port past int32 or a flow count the line cannot hold
      if (spans.size() < 2) break;
      const auto [b, e] = spans[1 + rng.below(spans.size() - 1)];
      static const char* const kValues[] = {
          "2147483648", "-2147483649", "4294967296", "1000000000000",
          "99999999999999999999", "9223372036854775807",
          "-9223372036854775808"};
      line.replace(b, e - b, kValues[rng.below(7)]);
      break;
    }
  }
}

// ------------------------------------------------------------------ tests

constexpr int kFuzzLines = 12'000;
constexpr int kMutantsPerLine = 6;

TEST(EventLineFuzz, MutatedLinesAcceptOrRejectTypedLikeTheReference) {
  SplitMix rng(0x5aa7'2017);
  std::int64_t events = 0;
  std::int64_t rejects = 0;
  for (int n = 0; n < kFuzzLines; ++n) {
    const std::string valid = replay::format_event_line(random_event(rng));
    for (int m = 0; m < kMutantsPerLine; ++m) {
      std::string line = valid;
      const std::uint64_t rounds = 1 + rng.below(3);
      for (std::uint64_t r = 0; r < rounds; ++r) mutate(line, rng);
      Outcome got;
      try {
        got = outcome_of(replay::parse_event_line, line);
      } catch (const std::exception& e) {
        FAIL() << "untyped reject (" << e.what() << ") of '" << escaped(line)
               << "'";
      }
      const Outcome want = outcome_of(reference_parse, line);
      ASSERT_EQ(got.kind, want.kind) << "'" << escaped(line) << "': got '"
                                     << got.text << "', want '" << want.text
                                     << "'";
      ASSERT_EQ(got.text, want.text) << "'" << escaped(line) << "'";
      events += got.kind == Outcome::Kind::kEvent ? 1 : 0;
      rejects += got.kind == Outcome::Kind::kRejected ? 1 : 0;
    }
  }
  // The mutations must reach both sides of the grammar.
  EXPECT_GT(events, kFuzzLines / 2);
  EXPECT_GT(rejects, kFuzzLines);
}

TEST(EventLineFuzz, ValidEventsRoundTripByteForByte) {
  SplitMix rng(0xf0'4a7);
  for (int n = 0; n < kFuzzLines; ++n) {
    const WorkloadEvent ev = random_event(rng);
    const std::string line = replay::format_event_line(ev);
    const std::optional<WorkloadEvent> back = replay::parse_event_line(line, 1);
    ASSERT_TRUE(back.has_value()) << line;
    ASSERT_EQ(replay::format_event_line(*back), line);
    ASSERT_EQ(back->kind, ev.kind) << line;
    ASSERT_EQ(back->time, ev.time) << line;
    switch (ev.kind) {
      case WorkloadEvent::Kind::kArrival:
        ASSERT_EQ(back->coflow.flows.size(), ev.coflow.flows.size()) << line;
        for (std::size_t i = 0; i < ev.coflow.flows.size(); ++i) {
          EXPECT_EQ(back->coflow.flows[i].src, ev.coflow.flows[i].src);
          EXPECT_EQ(back->coflow.flows[i].dst, ev.coflow.flows[i].dst);
          EXPECT_EQ(back->coflow.flows[i].size, ev.coflow.flows[i].size);
        }
        EXPECT_EQ(back->data_ready, ev.data_ready);
        break;
      case WorkloadEvent::Kind::kDynamics: {
        const double a = back->dynamics.capacity_factor;
        const double b = ev.dynamics.capacity_factor;
        if (a == a || b == b) {  // NaN payloads need not survive the text
          EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << line;
        }
        EXPECT_EQ(back->dynamics.port, ev.dynamics.port);
        break;
      }
      case WorkloadEvent::Kind::kDataAvailable:
        EXPECT_EQ(back->gated, ev.gated);
        break;
    }
  }
}

// The same lines reach the parser through a journal file: a mutated
// header, config line or event line is read or rejected with
// std::runtime_error, never anything else.
TEST(EventLineFuzz, MutatedJournalsRejectTyped) {
  SplitMix rng(0x10'2017);
  const std::string header = "SAATHJ1 8 7 fuzz journal\n";
  const std::string config =
      "C 0x1.dcd65p+26 8000 0 1 1 1 1 500000000000 0 0 3 1\n";
  for (int n = 0; n < 2'000; ++n) {
    std::string lines[3] = {header.substr(0, header.size() - 1),
                            config.substr(0, config.size() - 1),
                            replay::format_event_line(random_event(rng))};
    std::string& target = lines[rng.below(3)];
    const std::uint64_t rounds = 1 + rng.below(3);
    for (std::uint64_t r = 0; r < rounds; ++r) mutate(target, rng);
    std::istringstream in(lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n");
    try {
      replay::ReplaySource source(in);
      while (source.peek_next_time() != kNever) (void)source.next();
    } catch (const std::runtime_error&) {
    } catch (const std::exception& e) {
      FAIL() << "untyped reject (" << e.what() << ") of journal '"
             << escaped(lines[0]) << "' / '" << escaped(lines[1]) << "' / '"
             << escaped(lines[2]) << "'";
    }
  }
}

/// The message a journal holding `line` as its first event is rejected
/// with.
std::string journal_reject(const std::string& line) {
  std::istringstream in("SAATHJ1 4 1 hostile\n"
                        "C 0x1p30 8000 0 1 1 1 1 500000000000 0 0 3 1\n" +
                        line + "\n");
  replay::ReplaySource source(in);
  try {
    (void)source.peek_next_time();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "accepted";
}

TEST(EventLineGrammar, HostileLinesRejectTyped) {
  // A flow count the line cannot hold: nothing is reserved for it.
  EXPECT_EQ(journal_reject("A 0 0 0 0 0 0 1000000000000"),
            "journal line 3: truncated record");
  EXPECT_EQ(journal_reject("A 0 0 0 0 0 0 99999999999999999999"),
            "journal line 3: bad integer '99999999999999999999'");
  // An int64 field past the range no longer saturates.
  EXPECT_EQ(journal_reject("A 0 0 0 0 0 0 1 0 1 99999999999999999999"),
            "journal line 3: bad integer '99999999999999999999'");
  EXPECT_EQ(journal_reject("G -9223372036854775809 1"),
            "journal line 3: bad integer '-9223372036854775809'");
  // A port past int32 is no longer truncated.
  EXPECT_EQ(journal_reject("A 0 0 0 0 0 0 1 2147483648 1 10"),
            "journal line 3: port out of range 2147483648");
  EXPECT_EQ(journal_reject("D 0 0 -2147483649 0x1p+0"),
            "journal line 3: port out of range -2147483649");
  // A stage past int32 is rejected, not truncated.
  EXPECT_EQ(journal_reject("A 0 0 0 4294967297 0 0 0"),
            "journal line 3: stage out of range 4294967297");
  // A dynamics kind outside the enum is rejected, not dropped downstream.
  EXPECT_EQ(journal_reject("D 1000 7 0 0x1p+0"),
            "journal line 3: unknown dynamics kind 7");
  EXPECT_EQ(journal_reject("D 1000 -1 0 0x1p+0"),
            "journal line 3: unknown dynamics kind -1");
  // The edges of each range still parse, as do a leading '+' and
  // trailing tokens.
  const auto ev = replay::parse_event_line(
      "A +5 9223372036854775807 -9223372036854775808 0 5 0 1 "
      "2147483647 -2147483648 +12 trailing",
      1);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->time, 5);
  EXPECT_EQ(ev->coflow.id.value, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(ev->coflow.job.value, std::numeric_limits<std::int64_t>::min());
  ASSERT_EQ(ev->coflow.flows.size(), 1u);
  EXPECT_EQ(ev->coflow.flows[0].src, std::numeric_limits<PortIndex>::max());
  EXPECT_EQ(ev->coflow.flows[0].dst, std::numeric_limits<PortIndex>::min());
  EXPECT_EQ(ev->coflow.flows[0].size, 12);
  EXPECT_THROW((void)replay::parse_event_line("G +-1 2", 1),
               std::runtime_error);
}

// ------------------------------------------------ checkpoints, FB traces

/// The lines of `text`, newline-terminated text split without the
/// newlines.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// One multi-line mutant of `lines`: a line mutated one to three times,
/// or a line dropped or duplicated.
std::string mutate_lines(std::vector<std::string> lines, SplitMix& rng) {
  const std::size_t at = rng.below(lines.size());
  switch (rng.below(8)) {
    case 0:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 1:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
      break;
    default: {
      const std::uint64_t rounds = 1 + rng.below(3);
      for (std::uint64_t r = 0; r < rounds; ++r) mutate(lines[at], rng);
      break;
    }
  }
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

/// Loads every mutant of `saved` through `load`: each must load or throw
/// std::runtime_error. Returns the number rejected.
int fuzz_loader(const std::string& saved, std::uint64_t seed, int mutants,
                void (*load)(std::istream&)) {
  SplitMix rng(seed);
  const std::vector<std::string> lines = lines_of(saved);
  int rejects = 0;
  for (int n = 0; n < mutants; ++n) {
    const std::string text = mutate_lines(lines, rng);
    std::istringstream in(text);
    try {
      load(in);
    } catch (const std::runtime_error&) {
      ++rejects;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped reject (" << e.what() << ") of\n"
                    << escaped(text);
      return rejects;
    }
  }
  return rejects;
}

void load_checkpoint_text(std::istream& in) {
  (void)replay::load_checkpoint(in);
}

void parse_fb_trace_text(std::istream& in) { (void)trace::parse_fb_trace(in); }

trace::Trace small_fb_trace() {
  trace::SynthConfig cfg;
  cfg.num_ports = 24;
  cfg.num_coflows = 60;
  cfg.arrival_span = seconds(4);
  cfg.seed = 7;
  return trace::synth_fb_trace(cfg);
}

TEST(CheckpointFuzz, MutatedCheckpointsLoadOrRejectTyped) {
  SaathScheduler sched;
  Engine engine(std::make_shared<workload::TraceSource>(small_fb_trace()),
                sched, SimConfig{});
  std::string saved;
  int seen = 0;
  engine.set_snapshot_hook(40, [&](const EngineSnapshot& snap) {
    // The third snapshot holds live CoFlows and completed records both.
    if (++seen != 3) return;
    std::ostringstream out;
    replay::save_checkpoint(out, snap);
    saved = out.str();
  });
  (void)engine.run();
  ASSERT_NE(saved.find("\nS "), std::string::npos);
  ASSERT_NE(saved.find("\nR "), std::string::npos);
  const int mutants = 3'000;
  const int rejects =
      fuzz_loader(saved, 0xc4ec'9017, mutants, load_checkpoint_text);
  EXPECT_GT(rejects, mutants / 4);
  EXPECT_LT(rejects, mutants);
}

TEST(FbTraceFuzz, MutatedTracesParseOrRejectTyped) {
  std::ostringstream out;
  trace::write_fb_trace(out, small_fb_trace());
  const int mutants = 3'000;
  const int rejects =
      fuzz_loader(out.str(), 0xfb'2010, mutants, parse_fb_trace_text);
  EXPECT_GT(rejects, mutants / 4);
  EXPECT_LT(rejects, mutants);
}

TEST(VerbFrameFuzz, MutatedFramesNeverThrow) {
  static const char* const kFrames[] = {
      "HELLO cli 8 fb replay",
      "REACTIVE",
      "IDLE 7",
      "IDLE",
      "STATS",
      "FIN",
      "SHUTDOWN",
      "DONE 5 1 2 300 9000",
  };
  SplitMix rng(0xf4a3'e5);
  int bad = 0;
  for (int n = 0; n < 20'000; ++n) {
    std::string frame = kFrames[rng.below(std::size(kFrames))];
    const std::uint64_t rounds = 1 + rng.below(3);
    for (std::uint64_t r = 0; r < rounds; ++r) mutate(frame, rng);
    try {
      const service::Request req = service::parse_request(frame);
      if (req.kind == service::Request::Kind::kBad) {
        ++bad;
        EXPECT_FALSE(req.error.empty()) << escaped(frame);
      }
      (void)service::parse_done(frame);
    } catch (const std::exception& e) {
      FAIL() << "frame '" << escaped(frame) << "' threw " << e.what();
    }
  }
  EXPECT_GT(bad, 1'000);
}

}  // namespace
}  // namespace saath
