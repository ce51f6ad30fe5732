// LINT-AS: src/trace/bad_parse.cc
//
// Seeded violations for the text-parse check: a second reader beside
// src/common/tokens.h, each with its own idea of a token or a number.
// A mention in a comment (strtoll, std::istringstream) is not flagged.
//
// Not compiled — fed to `saath_lint.py --self-test` under the LINT-AS path.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace saath::trace {

int read_ports(const std::string& text) {
  std::istringstream in(text);  // EXPECT-LINT: text-parse
  int ports = 0;
  in >> ports;
  return ports;
}

long long read_id(const std::string& tok) {
  const long long a = std::strtoll(tok.c_str(), nullptr, 10);  // EXPECT-LINT: text-parse
  const long b = std::stol(tok);  // EXPECT-LINT: text-parse
  const int c = std::atoi(tok.c_str());  // EXPECT-LINT: text-parse
  int d = 0;
  std::sscanf(tok.c_str(), "%d", &d);  // EXPECT-LINT: text-parse
  long long e = 0;
  std::from_chars(tok.data(), tok.data() + tok.size(), e);  // EXPECT-LINT: text-parse
  return a + b + c + d + e;
}

double read_mb(const std::string& tok) {
  return std::strtod(tok.c_str(), nullptr);  // EXPECT-LINT: text-parse
}

std::string whole_file(const std::string& text) {
  // SAATH_LINT_OK(text-parse): fixture-only demo of a stream that feeds a reader
  std::istringstream lines(text);
  std::ostringstream copy;  // writing text is not parsing it: not flagged
  copy << lines.rdbuf();
  return copy.str();
}

}  // namespace saath::trace
