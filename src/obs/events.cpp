#include "obs/events.hpp"

#include <ostream>
#include <sstream>

namespace stayaway::obs {

JsonValue Event::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("t", JsonValue(time));
  out.set("type", JsonValue(type));
  for (const auto& [k, v] : fields) out.set(k, v);
  return out;
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

}  // namespace stayaway::obs
