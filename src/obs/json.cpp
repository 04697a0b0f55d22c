#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace stayaway::obs {

JsonValue::JsonValue(const JsonValue&) = default;
JsonValue::JsonValue(JsonValue&&) noexcept = default;
JsonValue& JsonValue::operator=(const JsonValue&) = default;
JsonValue& JsonValue::operator=(JsonValue&&) noexcept = default;
JsonValue::~JsonValue() = default;

namespace {

void write_number(std::ostream& out, double v) {
  SA_REQUIRE(std::isfinite(v), "json numbers must be finite");
  // Integral values print without an exponent or fraction; everything
  // else uses %.17g, which round-trips any double through strtod.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    out << buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

}  // namespace

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\b': out << "\\b"; break;
      case '\f': out << "\\f"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void JsonValue::push_back(JsonValue v) {
  SA_REQUIRE(kind() == Kind::Array, "push_back needs an array value");
  std::get<Array>(value_).push_back(std::move(v));
}

void JsonValue::set(std::string key, JsonValue v) {
  SA_REQUIRE(kind() == Kind::Object, "set needs an object value");
  std::get<Object>(value_).emplace_back(std::move(key), std::move(v));
}

void JsonValue::dump(std::ostream& out) const {
  switch (kind()) {
    case Kind::Null:
      out << "null";
      return;
    case Kind::Bool:
      out << (std::get<bool>(value_) ? "true" : "false");
      return;
    case Kind::Number:
      write_number(out, std::get<double>(value_));
      return;
    case Kind::String:
      write_json_string(out, std::get<std::string>(value_));
      return;
    case Kind::Array: {
      out << '[';
      bool first = true;
      for (const auto& v : std::get<Array>(value_)) {
        if (!first) out << ',';
        first = false;
        v.dump(out);
      }
      out << ']';
      return;
    }
    case Kind::Object: {
      out << '{';
      bool first = true;
      for (const auto& [k, v] : std::get<Object>(value_)) {
        if (!first) out << ',';
        first = false;
        write_json_string(out, k);
        out << ':';
        v.dump(out);
      }
      out << '}';
      return;
    }
  }
}

std::string JsonValue::dump() const {
  std::ostringstream out;
  dump(out);
  return out.str();
}

}  // namespace stayaway::obs
