#include "util/strings.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace stayaway {

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    std::size_t last = s.find_last_not_of('0');
    if (s[last] == '.') last = (last == 0) ? 0 : last - 1;
    s.erase(last + 1);
  }
  if (s == "-0") s = "0";
  return s;
}

namespace {

/// The %.{15,16,17}g loop: the first precision whose text from_chars
/// parses back to v. Only subnormals and exact powers of two take it
/// (append_double_exact).
void append_by_precision_loop(std::string& out, double v) {
  char buf[64];
  // to_chars with an explicit precision is printf's %.*g in the C
  // locale, without the locale and format-string overhead.
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        precision)
              .ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == v) break;
  }
  out.append(buf, end);
}

}  // namespace

void append_double_exact(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "nan";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0.0 ? "inf" : "-inf";
    return;
  }
  char buf[32];
  // About four in five checkpointed doubles are integer-valued, most of
  // them empty histogram bins: they print as the integer.
  if (std::abs(v) < 1e15) {
    const auto i = static_cast<std::int64_t>(v);
    if (static_cast<double>(i) == v) {
      if (i == 0 && std::signbit(v)) {
        out += "-0";
      } else {
        out.append(buf, std::to_chars(buf, buf + sizeof buf, i).ptr);
      }
      return;
    }
  }
  // A subnormal (exponent field 0) or an exact power of two (fraction
  // field 0) can round-trip at a precision whose text is not the
  // shortest digits padded; the loop gives %g's own answer there.
  const auto bits = std::bit_cast<std::uint64_t>(v);
  constexpr std::uint64_t kFraction = (std::uint64_t{1} << 52) - 1;
  constexpr std::uint64_t kExponent = std::uint64_t{0x7ff} << 52;
  if ((bits & kExponent) == 0 || (bits & kFraction) == 0) {
    return append_by_precision_loop(out, v);
  }
  // The shortest round-trip digits, as [-]d[.ddd]e(+|-)XX[X].
  const std::string_view sci(
      buf,
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific)
          .ptr);
  const std::size_t mark = sci.find('e');
  int exponent = 0;
  for (char c : sci.substr(mark + 2)) exponent = exponent * 10 + (c - '0');
  if (sci[mark + 1] == '-') exponent = -exponent;
  const bool negative = sci[0] == '-';
  const char lead = sci[negative ? 1 : 0];
  // The digits after the lead one: past the point, if there is one.
  const std::size_t lead_end = negative ? 2 : 1;
  const std::string_view tail =
      mark == lead_end ? std::string_view()
                       : sci.substr(lead_end + 1, mark - lead_end - 1);
  const int digits = 1 + static_cast<int>(tail.size());
  if (exponent < -4 || exponent >= std::max(15, digits)) {
    out += sci;  // %g's scientific layout is to_chars's own
    return;
  }
  if (negative) out += '-';
  if (exponent < 0) {
    out += "0.";
    out.append(static_cast<std::size_t>(-exponent - 1), '0');
    out += lead;
    out += tail;
    return;
  }
  // exponent digits of tail belong before the point.
  const auto whole = static_cast<std::size_t>(exponent);
  out += lead;
  if (tail.size() <= whole) {
    out += tail;
    out.append(whole - tail.size(), '0');
    return;
  }
  out += tail.substr(0, whole);
  out += '.';
  out += tail.substr(whole);
}

std::string format_double_exact(double v) {
  std::string out;
  append_double_exact(out, v);
  return out;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t acc = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (acc > (UINT64_MAX - digit) / 10) return false;  // overflow
    acc = acc * 10 + digit;
  }
  out = acc;
  return true;
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::uint64_t fnv1a64(std::string_view text, std::uint64_t hash) {
  for (char c : text) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace stayaway
