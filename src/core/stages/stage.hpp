// The three pipeline stage interfaces the per-host loop is composed of
// (DESIGN.md §13). HostPipeline drives them in order every control
// period:
//
//   Mapper              §3.1  sample -> quarantine -> normalize -> dedup
//                             -> embed; owns the mapping slice of
//                             PeriodRecord and the labelled state space.
//   ViolationForecaster §3.2  trajectory observation + sampled voting;
//                             owns the prediction slice and the passive
//                             accuracy tally.
//   Actuator            §3.3  decides and applies pause/resume through an
//                             injected ActuationPort; owns the action
//                             slice and any retry ledger.
//
// Stages never see the simulated host (lint-enforced): the Mapper owns a
// pre-built sampler, the Actuator acts through its port, and everything
// in between travels inside the PeriodRecord. Any stage may be absent
// from a pipeline — a baseline policy is just an actuator-only pipeline.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "core/period.hpp"
#include "core/stages/port.hpp"
#include "monitor/health.hpp"
#include "obs/observer.hpp"
#include "util/statecodec.hpp"

namespace stayaway::core {

class StateSpace;

/// Mapping stage (§3.1). map() fills rec.quarantined_dims, max_staleness,
/// representative, new_representative, state and stress, and returns the
/// sample health for the pipeline's degradation tracking. observe_qos()
/// contributes one (visit, violated?) evidence observation — the pipeline
/// calls it only on QoS-visible periods.
class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual monitor::SampleHealth map(PeriodRecord& rec,
                                    obs::Observer* observer) = 0;
  virtual void observe_qos(std::size_t representative, bool violated) = 0;
  /// The labelled map the forecaster predicts over.
  virtual const StateSpace& space() const = 0;

  /// Checkpoint support (DESIGN.md §17): every stage describes its full
  /// mutable state at a period boundary once, for both directions; a
  /// load targets a freshly built stage of the same wiring.
  virtual void persist(util::StateIO& io) = 0;
};

/// Prediction stage (§3.2). forecast() observes the latest within-mode
/// trajectory step, fills rec.model_ready and rec.violation_predicted,
/// and scores last period's forecast against this period's realised
/// position. `widened` lowers the vote threshold under degraded
/// telemetry without shifting the RNG stream.
class ViolationForecaster {
 public:
  virtual ~ViolationForecaster() = default;
  virtual void forecast(const StateSpace& space, PeriodRecord& rec,
                        bool widened, obs::Observer* observer) = 0;

  /// Checkpoint support (DESIGN.md §17); see Mapper.
  virtual void persist(util::StateIO& io) = 0;
};

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
  };

  virtual Outcome act(ActuationPort& port, PeriodRecord& rec,
                      DegradationState degradation,
                      obs::Observer* observer) = 0;

  /// Checkpoint support (DESIGN.md §17); see Mapper.
  virtual void persist(util::StateIO& io) = 0;
};

}  // namespace stayaway::core
