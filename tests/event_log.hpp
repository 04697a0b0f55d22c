// Test helper: an EventSink that keeps every event it is handed, so a
// test reads the stream as typed events instead of parsing JSONL text
// back. Not synchronized: attach it to one pipeline, not to a fleet with
// several workers.
#pragma once

#include <string_view>
#include <vector>

#include "obs/events.hpp"

namespace stayaway::testutil {

class EventLog final : public obs::EventSink {
 public:
  void emit(const obs::Event& e) override { events.push_back(e); }

  /// The events of one type, in emission order.
  std::vector<obs::Event> of_type(std::string_view type) const {
    std::vector<obs::Event> out;
    for (const obs::Event& e : events) {
      if (e.type == type) out.push_back(e);
    }
    return out;
  }

  std::vector<obs::Event> events;
};

/// The value of field `key` of `e`, nullptr when it has none.
inline const obs::JsonValue* field(const obs::Event& e, std::string_view key) {
  for (const auto& [k, v] : e.fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace stayaway::testutil
