// Record/replay driver (DESIGN.md §14): canonicalizes a scenario
// document, runs it with a RunRecorder attached, and re-executes a
// saved RunLog byte-diffing every PeriodRecord line against the
// recording. Everything downstream of the canonical scenario text is
// deterministic, so record → replay mismatches mean a real divergence
// (nondeterminism or a changed controller), never formatting noise.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "harness/fleet.hpp"
#include "harness/scenario_file.hpp"
#include "replay/recorder.hpp"
#include "replay/run_log.hpp"

namespace stayaway::replay {

/// The runnable fleet of a parsed document: explicit [host] sections map
/// 1:1; a plain document becomes the degenerate one-host fleet "host0"
/// with its seed unchanged (a single-host run is a fleet of one, so this
/// is exactly the single-host run).
harness::FleetSpec to_fleet_spec(const harness::FleetScenario& fleet);

/// Canonical form of a document: serialize → reparse, so the returned
/// scenario is exactly what a replayer reading the embedded text will
/// materialize (diurnal traces, fault plans). hosts_override >= 1
/// replicates the base across that many hosts with fleet_host_seed
/// splits (mirroring `stayaway_sim --hosts`); it requires a document
/// without explicit [host] sections. 0 keeps the document as written.
harness::FleetScenario canonical_fleet(const harness::FleetScenario& doc,
                                       std::size_t hosts_override);

/// One recorded fleet run. Construction attaches a RunRecorder for the
/// spec's hosts (spec.recorder points into this object afterwards);
/// log() assembles the run-log once harness::run_fleet has returned.
/// record_run and stayaway_sim --record both record through this.
class Recording {
 public:
  /// `fleet` must be canonical (canonical_fleet) and `spec` built from
  /// it by to_fleet_spec; passive wiring (observer, ...) may be added.
  Recording(const harness::FleetScenario& fleet, harness::FleetSpec& spec);

  /// The canonical scenario text, every host's PeriodRecord stream and
  /// the coordinator's decision log of the finished run.
  RunLog log(const harness::FleetResult& result) const;

 private:
  std::string scenario_text_;
  RunRecorder recorder_;
};

struct RecordedRun {
  RunLog log;
  harness::FleetResult result;
};

/// Runs the (already canonical) fleet with a recorder attached and
/// returns the log plus the ordinary fleet result.
RecordedRun record_run(const harness::FleetScenario& fleet);

struct ReplayMismatch {
  std::string host;
  std::size_t period = 0;  // index into the host's stream
  std::string recorded;    // empty: the replay produced an extra period
  std::string replayed;    // empty: the replay ended early
};

struct ReplayReport {
  bool ok = false;
  std::size_t periods_checked = 0;
  /// First few divergences (capped; one is already proof of divergence).
  std::vector<ReplayMismatch> mismatches;
  /// Non-empty when the log could not be re-executed at all.
  std::string error;
};

/// Re-executes the log's embedded scenario and byte-diffs the fresh
/// PeriodRecord stream against the recorded one, host by host.
ReplayReport replay_run_log(const RunLog& log);

}  // namespace stayaway::replay
