#include "util/statecodec.hpp"

#include <cstdlib>
#include <sstream>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace stayaway::util {

namespace {

[[noreturn]] void fail(std::string_view key, const std::string& detail) {
  throw StateCodecError("state snapshot: field '" + std::string(key) + "': " +
                        detail);
}

}  // namespace

double parse_exact_double(const std::string& text, std::string_view what) {
  if (text.empty()) fail(what, "empty double");
  const char* begin = text.c_str();
  char* end = nullptr;
  double v = std::strtod(begin, &end);
  if (end != begin + text.size()) fail(what, "malformed double '" + text + "'");
  return v;
}

void StateWriter::emit(std::string_view key, std::string_view value) {
  SA_CHECK(key.find_first_of(" =\n") == std::string_view::npos,
           "snapshot keys are bare identifiers");
  SA_CHECK(value.find('\n') == std::string_view::npos,
           "snapshot values are single lines");
  out_ += key;
  out_ += " = ";
  out_ += value;
  out_ += '\n';
}

void StateWriter::u64(std::string_view key, std::uint64_t v) {
  emit(key, std::to_string(v));
}

void StateWriter::i64(std::string_view key, std::int64_t v) {
  emit(key, std::to_string(v));
}

void StateWriter::boolean(std::string_view key, bool v) {
  emit(key, v ? "true" : "false");
}

void StateWriter::real(std::string_view key, double v) {
  emit(key, format_double_exact(v));
}

void StateWriter::token(std::string_view key, std::string_view v) {
  SA_CHECK(!v.empty() && v.find_first_of(" \t\n") == std::string_view::npos,
           "snapshot tokens are single non-empty words");
  emit(key, v);
}

void StateWriter::line(std::string_view key, std::string_view v) {
  emit(key, v);
}

void StateWriter::reals(std::string_view key, const std::vector<double>& v) {
  std::string out = std::to_string(v.size());
  for (double x : v) {
    out += ' ';
    out += format_double_exact(x);
  }
  emit(key, out);
}

void StateWriter::u64s(std::string_view key,
                       const std::vector<std::uint64_t>& v) {
  std::string out = std::to_string(v.size());
  for (std::uint64_t x : v) {
    out += ' ';
    out += std::to_string(x);
  }
  emit(key, out);
}

std::string StateReader::next_value(std::string_view key) {
  std::string raw;
  if (!std::getline(in_, raw)) {
    fail(key, "snapshot truncated (field missing)");
  }
  if (in_.eof()) {
    // getline consumed characters but hit EOF before the delimiter:
    // the final line was cut mid-record.
    fail(key, "snapshot truncated (missing trailing newline)");
  }
  auto eq = raw.find(" = ");
  if (eq == std::string::npos) fail(key, "malformed line '" + raw + "'");
  std::string got = raw.substr(0, eq);
  if (got != key) fail(key, "found field '" + got + "' instead");
  return raw.substr(eq + 3);
}

std::uint64_t StateReader::u64(std::string_view key) {
  std::string v = next_value(key);
  std::uint64_t out = 0;
  if (!parse_u64(v, out)) fail(key, "malformed u64 '" + v + "'");
  return out;
}

std::int64_t StateReader::i64(std::string_view key) {
  std::string v = next_value(key);
  if (v.empty()) fail(key, "empty i64");
  bool negative = v[0] == '-';
  std::uint64_t mag = 0;
  if (!parse_u64(negative ? v.substr(1) : v, mag)) {
    fail(key, "malformed i64 '" + v + "'");
  }
  constexpr std::uint64_t kMax =
      static_cast<std::uint64_t>(INT64_MAX);
  if (mag > (negative ? kMax + 1 : kMax)) fail(key, "i64 overflow '" + v + "'");
  return negative ? -static_cast<std::int64_t>(mag)
                  : static_cast<std::int64_t>(mag);
}

bool StateReader::boolean(std::string_view key) {
  std::string v = next_value(key);
  if (v == "true") return true;
  if (v == "false") return false;
  fail(key, "malformed bool '" + v + "'");
}

double StateReader::real(std::string_view key) {
  return parse_exact_double(next_value(key), key);
}

std::string StateReader::token(std::string_view key) {
  std::string v = next_value(key);
  if (v.empty() || v.find_first_of(" \t") != std::string::npos) {
    fail(key, "malformed token '" + v + "'");
  }
  return v;
}

std::string StateReader::line(std::string_view key) { return next_value(key); }

std::vector<double> StateReader::reals(std::string_view key) {
  std::istringstream in(next_value(key));
  std::uint64_t n = 0;
  std::string head;
  if (!(in >> head) || !parse_u64(head, n)) fail(key, "malformed vector count");
  std::vector<double> out;
  out.reserve(n);
  std::string item;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!(in >> item)) fail(key, "vector shorter than its count");
    out.push_back(parse_exact_double(item, key));
  }
  if (in >> item) fail(key, "vector longer than its count");
  return out;
}

std::vector<std::uint64_t> StateReader::u64s(std::string_view key) {
  std::istringstream in(next_value(key));
  std::uint64_t n = 0;
  std::string head;
  if (!(in >> head) || !parse_u64(head, n)) fail(key, "malformed vector count");
  std::vector<std::uint64_t> out;
  out.reserve(n);
  std::string item;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t v = 0;
    if (!(in >> item) || !parse_u64(item, v)) {
      fail(key, "vector shorter than its count or malformed entry");
    }
    out.push_back(v);
  }
  if (in >> item) fail(key, "vector longer than its count");
  return out;
}

}  // namespace stayaway::util
