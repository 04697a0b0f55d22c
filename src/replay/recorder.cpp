#include "replay/recorder.hpp"

#include "core/period.hpp"
#include "util/check.hpp"

namespace stayaway::replay {

RunRecorder::RunRecorder(const std::vector<std::string>& host_names) {
  SA_REQUIRE(!host_names.empty(), "a recorder needs at least one host");
  streams_.reserve(host_names.size());
  for (const std::string& name : host_names) {
    SA_REQUIRE(!name.empty(), "host names must be non-empty");
    for (const HostStream& existing : streams_) {
      SA_REQUIRE(existing.name != name,
                 "duplicate recorder host name: " + name);
    }
    streams_.push_back(HostStream{name, {}});
  }
}

void RunRecorder::record_period(const std::string& host,
                                const core::PeriodRecord& rec) {
  // Encode outside the lock; only the append is serialized. Per-host
  // ordering is the fleet's: one worker at a time holds a host and drives
  // its periods in order, and the fleet's hand-off orders one holder's
  // calls before the next one's, so a host's periods arrive in emission
  // order.
  std::string line = core::encode_record(rec);
  util::MutexLock lock(mutex_);
  for (HostStream& stream : streams_) {
    if (stream.name == host) {
      stream.records.push_back(std::move(line));
      return;
    }
  }
  SA_REQUIRE(false, "record_period for unknown host: " + host);
}

std::vector<HostStream> RunRecorder::streams() const {
  util::MutexLock lock(mutex_);
  return streams_;
}

}  // namespace stayaway::replay
