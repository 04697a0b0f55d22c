// Small string/number formatting helpers shared across modules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace stayaway {

/// Formats v with fixed precision, trimming trailing zeros ("1.5", "0.001").
std::string format_double(double v, int precision);

/// Shortest %g form of v that strtod parses back to the identical value
/// ("0.1", not "0.100000000000000006"); "inf"/"-inf"/"nan" for the
/// non-finite values. The exact round-trip is what record/replay's
/// byte-diff guarantee rests on (DESIGN.md §14).
std::string format_double_exact(double v);

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
