// The pipeline's action seam (DESIGN.md §13). HostPipeline runs the
// paper's per-host loop in three stages every control period:
//
//   StayAwayMapper        §3.1  sample -> quarantine -> normalize -> dedup
//                               -> embed; owns the mapping slice of
//                               PeriodRecord and the labelled state space.
//   TrajectoryForecaster  §3.2  trajectory observation + sampled voting;
//                               owns the prediction slice and the passive
//                               accuracy tally.
//   Actuator              §3.3  decides and applies pause/resume through an
//                               injected ActuationPort; owns the action
//                               slice and any retry ledger.
//
// Mapping and prediction have one implementation each and are concrete
// classes; only the action varies (Stay-Away's GovernorActuator, the
// baselines' actuators, the cluster's MigrationActuator decorator), so
// Actuator is the one abstract stage. Stages never see the simulated
// host (lint-enforced): the mapper owns a pre-built sample source, the
// Actuator acts through its port, and everything in between travels
// inside the PeriodRecord. A baseline policy is an actuator-only
// pipeline.
#pragma once

#include <string_view>
#include <vector>

#include "core/period.hpp"
#include "core/stages/port.hpp"
#include "obs/observer.hpp"
#include "util/statecodec.hpp"

namespace stayaway::core {

/// Action stage (§3.3). act() reconciles any outstanding actuation,
/// decides this period's ThrottleAction and applies it through the port;
/// it fills rec.action, batch_paused_after, actuation_retries,
/// actuation_pending and beta.
class Actuator {
 public:
  virtual ~Actuator() = default;

  struct Outcome {
    /// VMs paused by a Pause this period. Empty otherwise.
    std::vector<sim::VmId> paused;
    /// VMs released by a Resume this period (for the event stream; the
    /// throttled set itself is cleared by the resume).
    std::vector<sim::VmId> resumed;
    /// Why the action fired — a static string ("observed-violation",
    /// "cooldown-elapsed", ...). Empty for None.
    std::string_view reason;

    /// Empties the outcome, keeping the vectors' storage.
    void clear() {
      paused.clear();
      resumed.clear();
      reason = {};
    }
  };

  /// Records what this period did in `out`, which arrives empty (the
  /// pipeline clears and reuses one Outcome, so a period that pauses or
  /// resumes need not allocate).
  virtual void act(ActuationPort& port, PeriodRecord& rec,
                   DegradationState degradation, obs::Observer* observer,
                   Outcome& out) = 0;

  /// Checkpoint support (DESIGN.md §17): the stage describes its full
  /// mutable state at a period boundary once, for both directions; a
  /// load targets a freshly built stage of the same wiring.
  virtual void persist(util::StateIO& io) = 0;
};

}  // namespace stayaway::core
