#include "obs/events.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace stayaway::obs {

const JsonValue* Event::find(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue Event::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("t", JsonValue(time));
  out.set("type", JsonValue(type));
  for (const auto& [k, v] : fields) out.set(k, v);
  return out;
}

Event Event::from_json(const JsonValue& v) {
  const auto& obj = v.as_object();
  Event e;
  bool have_time = false, have_type = false;
  for (const auto& [k, value] : obj) {
    if (k == "t" && !have_time) {
      e.time = value.as_double();
      have_time = true;
    } else if (k == "type" && !have_type) {
      e.type = value.as_string();
      have_type = true;
    } else {
      e.fields.emplace_back(k, value);
    }
  }
  SA_REQUIRE(have_time && have_type, "event needs 't' and 'type' fields");
  return e;
}

void JsonlSink::emit(const Event& e) {
  // Render outside the lock; only the stream write is serialized, so
  // concurrent fleet hosts contend for as little as possible.
  std::ostringstream line;
  e.to_json().dump(line);
  line << "\n";
  util::MutexLock lock(mu_);
  *out_ << line.str();
  ++emitted_;
}

void JsonlSink::flush() {
  util::MutexLock lock(mu_);
  out_->flush();
}

std::size_t JsonlSink::emitted() const {
  util::MutexLock lock(mu_);
  return emitted_;
}

std::vector<Event> parse_jsonl(std::istream& in) {
  std::vector<Event> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    out.push_back(Event::from_json(JsonValue::parse(line)));
  }
  return out;
}

}  // namespace stayaway::obs
