// Small string/number formatting helpers shared across modules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace stayaway {

/// Formats v with fixed precision, trimming trailing zeros ("1.5", "0.001").
std::string format_double(double v, int precision);

/// Appends the shortest %g form of v that strtod parses back to the
/// identical value ("0.1", not "0.100000000000000006"): the text of
/// `%.15g`, `%.16g` or `%.17g`, whichever round-trips first; "inf",
/// "-inf" or "nan" for the non-finite values. The exact round-trip is
/// what record/replay's byte-diff guarantee and checkpoint restore
/// rest on (DESIGN.md §14, §17).
///
/// One std::to_chars call yields the shortest round-trip digits d (n of
/// them) and the decimal exponent X. For a normal double that is not a
/// power of two the rounding interval is symmetric, so the correctly
/// rounded %.{max(15, n)}g text is d itself and is laid out directly:
/// fixed when -4 <= X < max(15, n), else d as scientific, with no
/// parse-back. Integer-valued |v| < 1e15 print as the integer ("-0"
/// keeps its sign). Subnormals and exact powers of two keep the 15→17
/// precision loop. A subnormal can round-trip at 15 digits without being
/// the padded shortest ("4.94065645841247e-324", not "5e-324"). A power
/// of two's interval is twice as wide above it as below, so %.16g can
/// miss while a farther 16-digit d still round-trips (2^-44 prints
/// "5.6843418860808015e-14", not "5.684341886080802e-14"). Appends in
/// place, with no temporary string.
void append_double_exact(std::string& out, double v);

/// append_double_exact into a fresh string.
std::string format_double_exact(double v);

/// Appends v as a plain decimal (std::to_chars, no temporary string).
void append_u64(std::string& out, std::uint64_t v);

/// Parses a full plain decimal u64 into out; false when text has signs,
/// spaces, trailing characters or overflows. Seeds must go through this
/// rather than a double parse — a 64-bit seed truncates above 2^53.
bool parse_u64(std::string_view text, std::uint64_t& out);

/// The FNV-1a 64-bit offset basis: fnv1a64 of the empty text.
inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ULL;

/// FNV-1a 64-bit over `text`, continuing from `hash`: fnv1a64(b,
/// fnv1a64(a)) == fnv1a64(a + b), so a hash can run along a growing
/// text. The checkpoint envelope's integrity hash and the record
/// digests' hash (core/checkpoint.hpp).
std::uint64_t fnv1a64(std::string_view text,
                      std::uint64_t hash = kFnv1a64Basis);

/// Left-pads s with spaces to the given width.
std::string pad_left(const std::string& s, std::size_t width);

/// Right-pads s with spaces to the given width.
std::string pad_right(const std::string& s, std::size_t width);

/// Joins parts with the given separator.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

}  // namespace stayaway
