// RunRecorder: the passive harness::PeriodSink that captures a fleet run's
// PeriodRecord streams as serialized run-log lines (DESIGN.md §14).
// Strictly observational — attaching one changes nothing about the run
// (pinned by tests/test_replay.cpp).
#pragma once

#include <string>
#include <vector>

#include "harness/fleet.hpp"
#include "replay/run_log.hpp"
#include "util/sync.hpp"

namespace stayaway::replay {

class RunRecorder final : public harness::PeriodSink {
 public:
  /// One stream per expected host, in fleet order; record_period rejects
  /// unknown host names (a recorder outliving its fleet wiring is a bug).
  explicit RunRecorder(const std::vector<std::string>& host_names);

  /// Thread-safe: fleet workers call concurrently for different hosts.
  void record_period(const std::string& host,
                     const core::PeriodRecord& rec) override;

  /// The captured streams, in construction order.
  std::vector<HostStream> streams() const;

 private:
  mutable util::Mutex mutex_;
  std::vector<HostStream> streams_ SA_GUARDED_BY(mutex_);
};

}  // namespace stayaway::replay
