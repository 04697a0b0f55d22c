// Versioned run-log (DESIGN.md §14): everything needed to re-execute a
// fleet run deterministically — the canonical serialized scenario
// (effective config, fleet layout, per-host seeds, fault plan) plus the
// PeriodRecord stream each host emitted, one core::encode_record line per
// period (core/period.hpp, the same line a checkpoint's `record = `
// entries carry). Replay re-runs the embedded scenario and byte-diffs the
// fresh lines against the recorded ones; because record lines round-trip
// exactly (core::decode_record), a byte-equal stream is a field-equal
// stream.
//
// Format (text, line oriented):
//
//   stayaway-runlog v1
//   detector = beta-out-of-band        # only on fuzzer regression logs
//   scenario <line-count>
//   ...canonical scenario document, exactly <line-count> lines...
//   records "host0" <period-count>
//   ...one core::encode_record line per period...
//   records "host1" <period-count>
//   ...
//   cluster-events <line-count>        # only on coordinated runs (§18)
//   ...one coordinator decision line per event, in decision order...
//   end
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace stayaway::replay {

/// One host's recorded stream: the core::encode_record lines in emission
/// order.
struct HostStream {
  std::string name;
  std::vector<std::string> records;
};

struct RunLog {
  static constexpr int kVersion = 1;
  /// Fuzz-detector tag for regression logs ("" on plain recordings).
  std::string detector;
  /// Canonical scenario document (serialize_fleet_scenario output).
  std::string scenario_text;
  std::vector<HostStream> hosts;
  /// Coordinator decision log for coordinated runs (ClusterReport::
  /// events, the `cluster-events` section); empty otherwise. Replay
  /// byte-diffs it like a host stream.
  std::vector<std::string> cluster_events;
};

std::string serialize_run_log(const RunLog& log);

/// Parses a run-log document; throws PreconditionError naming the
/// offending line on version/framing errors.
RunLog parse_run_log(std::istream& in);

/// File convenience wrappers; throw PreconditionError on I/O failure.
void save_run_log(const RunLog& log, const std::string& path);
RunLog load_run_log(const std::string& path);

}  // namespace stayaway::replay
