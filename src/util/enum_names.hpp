// One name table per enum: to_string and its inverse both read it, so a
// value is spelled once and cannot be printable but unparseable.
#pragma once

#include <cstddef>
#include <string>

#include "util/check.hpp"

namespace stayaway::util {

template <class E>
struct EnumName {
  E value;
  const char* name;
};

/// The name of `value` in `table`, "unknown" when it has none.
template <class E, std::size_t N>
const char* enum_name(const EnumName<E> (&table)[N], E value) {
  for (const EnumName<E>& entry : table) {
    if (entry.value == value) return entry.name;
  }
  return "unknown";
}

/// The value named `name`; throws PreconditionError "unknown <what>: ...".
template <class E, std::size_t N>
E enum_value(const EnumName<E> (&table)[N], const std::string& name,
             const char* what) {
  for (const EnumName<E>& entry : table) {
    if (name == entry.name) return entry.value;
  }
  throw PreconditionError(std::string("unknown ") + what + ": " + name);
}

}  // namespace stayaway::util
