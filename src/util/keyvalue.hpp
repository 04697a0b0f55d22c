// The line reader behind every `key = value` document: scenario files
// (harness/scenario_file) and fault plans (sim/faults) share its comments,
// quoting, truncation check, duplicate keys and number parsers, and every
// parse error carries exactly one "<document> line N: " prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <set>
#include <string>
#include <string_view>

#include "util/check.hpp"

namespace stayaway::util {

/// One line of a named document; every parser here fails naming it.
struct SourceLine {
  std::string_view document;
  std::size_t number = 0;

  [[noreturn]] void fail(const std::string& message) const;
  /// A number in std::stod syntax, consuming the whole value.
  double real(const std::string& value) const;
  /// A plain decimal count: signs, fractions, NaN and exponent forms are
  /// errors, not silent truncations.
  std::size_t count(const std::string& value) const;
  /// A plain decimal int with an optional leading '-'.
  int integer(const std::string& value) const;
  /// A 64-bit seed. Plain decimal covers the full range; forms like 1e6
  /// parse too, but only as a finite integral value in [0, 2^64).
  std::uint64_t seed(const std::string& value) const;
  /// true/yes/1 or false/no/0.
  bool flag(const std::string& value) const;
  /// Runs a name lookup that throws an unprefixed PreconditionError (an
  /// enum's from_string), naming this line on failure.
  template <class Lookup>
  auto lookup(Lookup&& from_string, const std::string& name) const {
    try {
      return from_string(name);
    } catch (const PreconditionError& e) {
      fail(e.what());
    }
  }
};

/// One non-blank line: a `[...]` section header, or a `key = value` pair
/// with the value unquoted.
struct KeyValueLine {
  SourceLine at;
  /// The whole trimmed line for a section header, else empty.
  std::string section;
  std::string key;
  std::string value;

  /// Fails on the key's second appearance in `seen` (one set per scope).
  void require_unique(std::set<std::string>& seen) const;
};

/// Calls `on_line` for each non-blank line of a document. '#' starts a
/// comment outside double quotes; a value may be double-quoted ("a # b")
/// with \\ \" \n \t \r escapes, which it needs when it holds '#', a quote
/// or edge spaces. A final line without its newline fails unless it is
/// blank: a document truncated mid-line must not parse as a shorter one.
void read_key_values(std::istream& in, std::string_view document,
                     const std::function<void(const KeyValueLine&)>& on_line);

/// Strips spaces, tabs and carriage returns from both ends.
std::string trim(std::string_view s);

/// `s` as a value read_key_values reads back verbatim: quoted and escaped
/// when it is empty, has edge spaces or holds '#', a quote or an escape.
std::string maybe_quote(const std::string& s);

}  // namespace stayaway::util
