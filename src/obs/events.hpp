// Structured event stream: the control loop narrates what it did each
// period (phase spans, decisions, pause/resume transitions) as typed
// events routed through a pluggable sink — JsonlSink, the canonical
// machine-readable stream. Sinks are passive: emitting an event never
// feeds back into the control decisions.
//
// JsonlSink serializes emit/flush internally, so one sink may be shared
// by the concurrent host pipelines of a fleet (DESIGN.md §13); lines
// from different hosts interleave whole, never mid-line. Custom
// EventSink implementations attached to a multi-worker fleet must do
// the same.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "util/sync.hpp"

namespace stayaway::obs {

struct Event {
  double time = 0.0;  // simulated seconds
  std::string type;   // "period", "span", "decision", "pause", "resume", ...
  std::vector<std::pair<std::string, JsonValue>> fields;

  Event() = default;
  Event(double t, std::string_view ty) : time(t), type(ty) {}

  Event& with(std::string_view key, JsonValue value) {
    fields.emplace_back(std::string(key), std::move(value));
    return *this;
  }

  /// {"t":<time>,"type":<type>,<fields...>} — field order preserved.
  JsonValue to_json() const;

  bool operator==(const Event& o) const = default;
};

class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void emit(const Event& e) = 0;
  virtual void flush() {}
};

/// One JSON object per line; the canonical machine-readable stream.
class JsonlSink final : public EventSink {
 public:
  /// The stream must outlive the sink.
  explicit JsonlSink(std::ostream& out) : out_(&out) {}
  void emit(const Event& e) override;
  void flush() override;
  std::size_t emitted() const;

 private:
  mutable util::Mutex mu_;
  std::ostream* out_ SA_PT_GUARDED_BY(mu_);
  std::size_t emitted_ SA_GUARDED_BY(mu_) = 0;
};

}  // namespace stayaway::obs
