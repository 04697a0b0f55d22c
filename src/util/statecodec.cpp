#include "util/statecodec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace stayaway::util {

namespace {

[[noreturn]] void fail(std::string_view key, const std::string& detail) {
  throw StateCodecError("state snapshot: field '" + std::string(key) + "': " +
                        detail);
}

/// The next space-separated token of `rest` (empty when none is left).
std::string_view next_token(std::string_view& rest) {
  rest.remove_prefix(std::min(rest.find_first_not_of(' '), rest.size()));
  std::string_view token = rest.substr(0, rest.find(' '));
  rest.remove_prefix(token.size());
  return token;
}

}  // namespace

double parse_exact_double(std::string_view text, std::string_view what) {
  if (text.empty()) fail(what, "empty double");
  const char* const last = text.data() + text.size();
  double fast = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), last, fast);
  if (ec == std::errc{} && ptr == last && !std::isnan(fast)) return fast;
  // strtod needs a terminated copy; exact doubles fit the stack buffer.
  char buf[64];
  std::string long_text;
  const char* begin = buf;
  if (text.size() < sizeof buf) {
    text.copy(buf, text.size());
    buf[text.size()] = '\0';
  } else {
    long_text = text;
    begin = long_text.c_str();
  }
  char* end = nullptr;
  double v = std::strtod(begin, &end);
  if (end != begin + text.size()) {
    fail(what, "malformed double '" + std::string(text) + "'");
  }
  return v;
}

// --- Writing ------------------------------------------------------------

std::string& StateIO::begin_line(std::string_view key,
                                 std::string_view suffix) {
  SA_CHECK(key.find_first_of(" =\n") == std::string_view::npos &&
               suffix.find_first_of(" =\n") == std::string_view::npos,
           "snapshot keys are bare identifiers");
  *out_ += key;
  *out_ += suffix;
  *out_ += " = ";
  return *out_;
}

void StateIO::write_u64(std::string_view key, std::uint64_t v) {
  append_u64(begin_line(key), v);
  *out_ += '\n';
}

// --- Reading ------------------------------------------------------------

std::string_view StateIO::next_value(std::string_view key) {
  if (in_.empty()) fail(key, "snapshot truncated (field missing)");
  const std::size_t eol = in_.find('\n');
  if (eol == std::string_view::npos) {
    fail(key, "snapshot truncated (missing trailing newline)");
  }
  std::string_view raw = in_.substr(0, eol);
  in_.remove_prefix(eol + 1);
  const std::size_t eq = raw.find(" = ");
  if (eq == std::string_view::npos) {
    fail(key, "malformed line '" + std::string(raw) + "'");
  }
  if (raw.substr(0, eq) != key) {
    fail(key, "found field '" + std::string(raw.substr(0, eq)) + "' instead");
  }
  return raw.substr(eq + 3);
}

bool StateIO::next_is(std::string_view key) const {
  return in_.starts_with(key) && in_.substr(key.size()).starts_with(" = ");
}

std::uint64_t StateIO::read_u64(std::string_view key) {
  std::string_view v = next_value(key);
  std::uint64_t out = 0;
  if (!parse_u64(v, out)) fail(key, "malformed u64 '" + std::string(v) + "'");
  return out;
}

std::size_t StateIO::open_vector(std::string_view key,
                                 std::string_view& rest) {
  rest = next_value(key);
  std::uint64_t n = 0;
  if (!parse_u64(next_token(rest), n)) fail(key, "malformed vector count");
  // Each entry takes at least two characters (" v").
  if (n > rest.size() / 2) fail(key, "vector shorter than its count");
  return static_cast<std::size_t>(n);
}

std::uint64_t StateIO::vector_u64(std::string_view key,
                                  std::string_view& rest) {
  std::uint64_t v = 0;
  if (!parse_u64(next_token(rest), v)) {
    fail(key, "vector shorter than its count or malformed entry");
  }
  return v;
}

void StateIO::close_vector(std::string_view key, std::string_view rest) {
  if (!next_token(rest).empty()) fail(key, "vector longer than its count");
}

void StateIO::fail_field(std::string_view key, std::string_view detail) {
  fail(key, std::string(detail));
}

void StateIO::finish() const {
  if (!in_.empty()) {
    throw StateCodecError("state snapshot: trailing data after the body");
  }
}

// --- Fields -------------------------------------------------------------

void StateIO::real(std::string_view key, double& v) {
  if (!loading()) {
    append_double_exact(begin_line(key), v);
    *out_ += '\n';
    return;
  }
  v = parse_exact_double(next_value(key), key);
}

void StateIO::boolean(std::string_view key, bool& v) {
  if (!loading()) {
    begin_line(key) += v ? "true\n" : "false\n";
    return;
  }
  std::string_view text = next_value(key);
  if (text == "true") {
    v = true;
  } else if (text == "false") {
    v = false;
  } else {
    fail(key, "malformed bool '" + std::string(text) + "'");
  }
}

void StateIO::line(std::string_view key, std::string& v) {
  if (!loading()) {
    SA_CHECK(v.find('\n') == std::string::npos,
             "snapshot values are single lines");
    begin_line(key) += v;
    *out_ += '\n';
    return;
  }
  v = next_value(key);
}

void StateIO::rng(std::string_view key, Rng& rng) {
  if (!loading()) {
    std::string& out = begin_line(key);
    append_u64(out, rng.seed());
    out += ' ';
    append_u64(out, rng.draws());
    out += '\n';
    return;
  }
  std::string_view rest = next_value(key);
  std::uint64_t seed = 0;
  std::uint64_t draws = 0;
  if (!parse_u64(next_token(rest), seed) ||
      !parse_u64(next_token(rest), draws) || !next_token(rest).empty()) {
    fail(key, "malformed rng '<seed> <draws>'");
  }
  if (draws > kMaxRngDraws) fail(key, "draw count over the restore cap");
  rng = Rng::resumed(seed, draws);
}

void StateIO::reals(std::string_view key, std::vector<double>& v) {
  if (!loading()) return write_reals(key, v);
  std::string_view rest;
  const std::size_t n = open_vector(key, rest);
  v.clear();
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string_view item = next_token(rest);
    if (item.empty()) fail(key, "vector shorter than its count");
    v.push_back(parse_exact_double(item, key));
  }
  close_vector(key, rest);
}

void StateIO::write_reals(std::string_view key, std::span<const double> v) {
  SA_CHECK(!loading(), "write_reals on a reading StateIO");
  append_reals(begin_line(key), v.size(),
               [v](std::size_t i) { return v[i]; });
}

void StateIO::count(std::string_view key, std::size_t& n) {
  u64(key, n);
  // Each counted item takes at least one line, and the shortest line
  // ("k = \n") is five bytes.
  if (loading() && n > in_.size() / 5) {
    fail(key, "count exceeds the input left");
  }
}

void StateIO::expect(std::string_view key, bool wired, std::string_view what) {
  bool v = wired;
  boolean(key, v);
  if (v != wired) throw StateCodecError(std::string(what));
}

void StateIO::expect(std::string_view key, std::size_t wired,
                     std::string_view what) {
  std::size_t v = wired;
  u64(key, v);
  if (v != wired) throw StateCodecError(std::string(what));
}

void StateIO::expect(std::string_view key, const std::string& wired,
                     std::string_view what) {
  std::string v = wired;
  line(key, v);
  if (v != wired) throw StateCodecError(std::string(what));
}

}  // namespace stayaway::util
