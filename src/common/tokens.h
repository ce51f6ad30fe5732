// The one tokenizer for every text input (journals and event frames,
// checkpoints, FB traces, verb frames, scenario parameter values). A token
// is a run of non-whitespace, as `istream >> std::string` reads it in the
// C locale; an integer is a decimal int64 with an optional sign; a double
// is anything strtod reads, and doubles are written as C hexfloats, which
// read back bit for bit. A Tokens reject is a std::runtime_error naming
// the source and line ("journal line 3: bad integer 'x'"). Inline: a
// stream replay parses every event through it.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/ids.h"

namespace saath {

/// A decimal int64 with an optional sign, as strtoll reads it (a NUL ends
/// the digits, as it ended the C string); nullopt for anything else.
[[nodiscard]] inline std::optional<std::int64_t> parse_int(
    std::string_view tok) {
  std::string_view digits = tok.substr(0, tok.find('\0'));
  // from_chars takes '-' but not '+'; "+-1" must still reject.
  if (digits.size() > 1 && digits[0] == '+' && digits[1] >= '0' &&
      digits[1] <= '9') {
    digits.remove_prefix(1);
  }
  std::int64_t v = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), v);
  if (ec != std::errc{} || end != digits.data() + digits.size()) {
    return std::nullopt;
  }
  return v;
}

/// A double in any form strtod reads (hexfloat, nan and inf included), up
/// to a NUL as in the C string; nullopt for anything else.
[[nodiscard]] inline std::optional<double> parse_double(std::string_view tok) {
  const std::string s(tok);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') return std::nullopt;
  return v;
}

/// Appends " <v>" as a C hexfloat.
inline void append_hexfloat(std::string& line, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, " %a", v);
  line += buf;
}

/// The tokens of one line, read in place through a string_view cursor.
class Tokens {
 public:
  /// `source` names the input in rejects ("journal", "checkpoint", ...).
  Tokens(std::string_view line, const char* source, std::int64_t line_no)
      : rest_(line), source_(source), line_no_(line_no) {}

  /// The next token, or an empty view once the line is used up.
  [[nodiscard]] std::string_view next() {
    std::size_t i = 0;
    while (i < rest_.size() && is_space(rest_[i])) ++i;
    std::size_t j = i;
    while (j < rest_.size() && !is_space(rest_[j])) ++j;
    const std::string_view tok = rest_.substr(i, j - i);
    rest_.remove_prefix(j);
    return tok;
  }

  /// The next token; throws naming the line when none is left.
  [[nodiscard]] std::string_view take() {
    const std::string_view tok = next();
    if (tok.empty()) reject("truncated record", {});
    return tok;
  }

  [[nodiscard]] std::int64_t take_int() {
    const std::string_view tok = take();
    if (const auto v = parse_int(tok)) return *v;
    reject("bad integer", tok);
  }

  /// An integer that fits int; a value outside rejects naming `field`.
  [[nodiscard]] int take_int_field(std::string_view field) {
    const std::int64_t v = take_int();
    if (v != static_cast<int>(v)) reject_range(field, v);
    return static_cast<int>(v);
  }

  [[nodiscard]] PortIndex take_port() { return take_int_field("port"); }

  [[nodiscard]] double take_double() {
    const std::string_view tok = take();
    if (const auto v = parse_double(tok)) return *v;
    reject("bad double", tok);
  }

  /// The rest of the line past the one space ending the last token: a
  /// trailing free-text field, such as a name holding spaces.
  [[nodiscard]] std::string_view rest() const {
    return rest_.starts_with(' ') ? rest_.substr(1) : rest_;
  }

  /// The reject for this line: "<source> line <n>: <what>".
  [[nodiscard]] std::runtime_error error(const std::string& what) const {
    return std::runtime_error(std::string(source_) + " line " +
                              std::to_string(line_no_) + ": " + what);
  }

 private:
  // Rejects build their message out of line: hot loops inline only tests.
  [[noreturn, gnu::cold, gnu::noinline]] void reject(
      const char* what, std::string_view tok) const {
    const std::string quoted = tok.empty() ? "" : " '" + std::string(tok) + "'";
    throw error(what + quoted);
  }
  [[noreturn, gnu::cold, gnu::noinline]] void reject_range(
      std::string_view field, std::int64_t v) const {
    throw error(std::string(field) + " out of range " + std::to_string(v));
  }

  [[nodiscard]] static bool is_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  std::string_view rest_;
  const char* source_;
  std::int64_t line_no_;
};

}  // namespace saath
