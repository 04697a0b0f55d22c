#include "util/keyvalue.hpp"

#include <climits>
#include <cmath>
#include <istream>
#include <stdexcept>

#include "util/strings.hpp"

namespace stayaway::util {

namespace {

/// Truncates `line` at the first '#' that is not inside a double-quoted
/// region. Inside quotes a backslash escapes the next character, so
/// `path = "a\"# b"` keeps its '#'.
std::string strip_comment(const std::string& line) {
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes && c == '\\' && i + 1 < line.size()) {
      ++i;  // escaped character, never a delimiter
      continue;
    }
    if (c == '"') in_quotes = !in_quotes;
    if (c == '#' && !in_quotes) return line.substr(0, i);
  }
  return line;
}

/// The escapes a quoted value may hold: `\\` + kEscapeLetters[i] stands
/// for kEscapedChars[i]. unquote and maybe_quote both read these.
constexpr std::string_view kEscapeLetters = "\\\"ntr";
constexpr std::string_view kEscapedChars = "\\\"\n\t\r";

/// Decodes a double-quoted value; values not starting with a quote pass
/// through untouched.
std::string unquote(const SourceLine& at, const std::string& value) {
  if (value.empty() || value.front() != '"') return value;
  std::string out;
  for (std::size_t i = 1; i < value.size(); ++i) {
    char c = value[i];
    if (c == '"') {
      if (i + 1 != value.size()) {
        at.fail("trailing characters after closing quote");
      }
      return out;
    }
    if (c == '\\') {
      if (i + 1 == value.size()) at.fail("dangling escape in string");
      auto k = kEscapeLetters.find(value[++i]);
      if (k == std::string_view::npos) {
        at.fail(std::string("unknown escape '\\") + value[i] + "'");
      }
      c = kEscapedChars[k];
    }
    out += c;
  }
  at.fail("unterminated quoted string");
}

}  // namespace

void SourceLine::fail(const std::string& message) const {
  throw PreconditionError(std::string(document) + " line " +
                          std::to_string(number) + ": " + message);
}

double SourceLine::real(const std::string& value) const {
  try {
    std::size_t pos = 0;
    double v = std::stod(value, &pos);
    if (pos != value.size()) fail("trailing characters in number");
    return v;
  } catch (const std::logic_error&) {
    fail("expected a number, got '" + value + "'");
  }
}

std::size_t SourceLine::count(const std::string& value) const {
  std::uint64_t v = 0;
  if (!parse_u64(value, v)) {
    fail("expected a non-negative integer, got '" + value + "'");
  }
  return static_cast<std::size_t>(v);
}

int SourceLine::integer(const std::string& value) const {
  bool negative = value.starts_with('-');
  std::uint64_t magnitude = 0;
  if (!parse_u64(std::string_view(value).substr(negative ? 1 : 0),
                 magnitude) ||
      magnitude > INT_MAX) {
    fail("expected an integer, got '" + value + "'");
  }
  int v = static_cast<int>(magnitude);
  return negative ? -v : v;
}

std::uint64_t SourceLine::seed(const std::string& value) const {
  std::uint64_t seed = 0;
  if (parse_u64(value, seed)) return seed;
  double v = real(value);
  // 2^64 is exact as a double; every integral double below it converts
  // without loss of range (the cast of anything else is undefined).
  if (!(v >= 0.0 && v < 18446744073709551616.0 && v == std::floor(v))) {
    fail("expected a seed (an integer in [0, 2^64)), got '" + value + "'");
  }
  return static_cast<std::uint64_t>(v);
}

bool SourceLine::flag(const std::string& value) const {
  if (value == "true" || value == "yes" || value == "1") return true;
  if (value == "false" || value == "no" || value == "0") return false;
  fail("expected true/false, got '" + value + "'");
}

void KeyValueLine::require_unique(std::set<std::string>& seen) const {
  if (!seen.insert(key).second) at.fail("duplicate key '" + key + "'");
}

void read_key_values(std::istream& in, std::string_view document,
                     const std::function<void(const KeyValueLine&)>& on_line) {
  std::string raw;
  for (std::size_t number = 1; std::getline(in, raw); ++number) {
    KeyValueLine line;
    line.at = {document, number};
    std::string text = trim(strip_comment(raw));
    // getline leaving eofbit set means the input ran dry before the
    // delimiter: the final line lost its newline.
    if (in.eof() && !text.empty()) {
      line.at.fail("truncated final line '" + text +
                   "' is missing its newline");
    }
    if (text.empty()) continue;
    auto eq = text.find('=');
    if (text.front() == '[') {
      line.section = std::move(text);
    } else if (eq == std::string::npos) {
      line.at.fail("expected 'key = value'");
    } else {
      line.key = trim(std::string_view(text).substr(0, eq));
      std::string value = trim(std::string_view(text).substr(eq + 1));
      if (line.key.empty()) line.at.fail("empty key");
      if (value.empty()) line.at.fail("empty value for '" + line.key + "'");
      line.value = unquote(line.at, value);
    }
    on_line(line);
  }
}

std::string trim(std::string_view s) {
  auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string_view::npos) return "";
  auto end = s.find_last_not_of(" \t\r");
  return std::string(s.substr(begin, end - begin + 1));
}

std::string maybe_quote(const std::string& s) {
  if (!s.empty() && s.front() != '"' && s.front() != ' ' && s.back() != ' ' &&
      s.find('#') == std::string::npos &&
      s.find_first_of(kEscapedChars) == std::string::npos) {
    return s;
  }
  std::string out = "\"";
  for (char c : s) {
    auto k = kEscapedChars.find(c);
    if (k != std::string_view::npos) {
      out += '\\';
      c = kEscapeLetters[k];
    }
    out += c;
  }
  return out + '"';
}

}  // namespace stayaway::util
