// Typed key/value line codec for component state snapshots (DESIGN.md
// §17). Checkpointable components serialize themselves through
// StateWriter and rehydrate through StateReader; the checkpoint
// envelope (versioning, checksum, per-host framing) lives in
// core/checkpoint.hpp on top of this.
//
// Format: one `key = value` line per field, written and read in a
// fixed order — the reader names the key it expects next and fails
// loudly on any mismatch, so a truncated or reordered snapshot can
// never be half-applied. Doubles use format_double_exact, making
// write→read the identity on every value including the non-finite
// ones; that exactness is what the crash/restore byte-identity
// guarantee rests on. The writer appends to a caller-owned std::string
// (an envelope frames its body in the buffer it returns); the reader
// consumes a stream.
#pragma once

#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace stayaway::util {

/// Thrown on any malformed, truncated or out-of-order snapshot field.
class StateCodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends fields to a caller-owned string, so an envelope can frame the
/// body in the same buffer it returns (no stream, no intermediate copy).
class StateWriter {
 public:
  explicit StateWriter(std::string& out) : out_(out) {}

  void u64(std::string_view key, std::uint64_t v);
  void i64(std::string_view key, std::int64_t v);
  void boolean(std::string_view key, bool v);
  void real(std::string_view key, double v);
  /// A single whitespace-free token (enum names, identifiers).
  void token(std::string_view key, std::string_view v);
  /// Free-form single-line text; internal spaces allowed (mt19937_64
  /// engine streams). Newlines are a caller bug.
  void line(std::string_view key, std::string_view v);
  void reals(std::string_view key, const std::vector<double>& v);
  void u64s(std::string_view key, const std::vector<std::uint64_t>& v);

 private:
  void emit(std::string_view key, std::string_view value);
  std::string& out_;
};

class StateReader {
 public:
  explicit StateReader(std::istream& in) : in_(in) {}

  std::uint64_t u64(std::string_view key);
  std::int64_t i64(std::string_view key);
  bool boolean(std::string_view key);
  double real(std::string_view key);
  std::string token(std::string_view key);
  std::string line(std::string_view key);
  std::vector<double> reals(std::string_view key);
  std::vector<std::uint64_t> u64s(std::string_view key);

 private:
  /// Next `key = value` line; throws unless the key matches exactly.
  std::string next_value(std::string_view key);
  std::istream& in_;
};

/// Exact double parse accepting format_double_exact's full range
/// ("inf", "-inf", "nan"); throws StateCodecError on anything else.
double parse_exact_double(const std::string& text, std::string_view what);

}  // namespace stayaway::util
