// Minimal JSON value: enough to write the observability layer's event
// stream and metrics summaries without an external dependency. Objects
// keep insertion order, so a value always dumps to the same text.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace stayaway::obs {

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(int i) : value_(static_cast<double>(i)) {}
  JsonValue(unsigned int i) : value_(static_cast<double>(i)) {}
  JsonValue(long i) : value_(static_cast<double>(i)) {}
  JsonValue(unsigned long i) : value_(static_cast<double>(i)) {}
  JsonValue(unsigned long long i) : value_(static_cast<double>(i)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string_view s) : value_(std::string(s)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  // Out-of-line (json.cpp) so the variant copy/move stays opaque to
  // callers; GCC 12 otherwise flags the inlined variant move with a
  // spurious -Wmaybe-uninitialized under -O2.
  JsonValue(const JsonValue&);
  JsonValue(JsonValue&&) noexcept;
  JsonValue& operator=(const JsonValue&);
  JsonValue& operator=(JsonValue&&) noexcept;
  ~JsonValue();

  static JsonValue array() { return JsonValue(Array{}); }
  static JsonValue object() { return JsonValue(Object{}); }

  Kind kind() const { return static_cast<Kind>(value_.index()); }

  /// Appends to an array value (must be an array).
  void push_back(JsonValue v);
  /// Appends a key to an object value (must be an object; keys are not
  /// deduplicated — callers control uniqueness).
  void set(std::string key, JsonValue v);

  /// Compact single-line serialization (no trailing newline).
  void dump(std::ostream& out) const;
  std::string dump() const;

  bool operator==(const JsonValue& o) const = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// Serializes a string with JSON escaping, including the quotes.
void write_json_string(std::ostream& out, std::string_view s);

}  // namespace stayaway::obs
