#include "util/strings.hpp"

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

std::string format_double_exact(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0.0 ? "inf" : "-inf";
  char buf[64];
  // 15 digits suffice for most values; some need 16 or 17 to survive the
  // decimal round trip bit-exactly. to_chars with an explicit precision
  // is printf's %.*g in the C locale, so the text is the same as
  // snprintf's, without the locale and format-string overhead.
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        precision)
              .ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == v) break;
  }
  return std::string(buf, end);
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
