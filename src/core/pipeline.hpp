// HostPipeline — one host's control loop as a thin composition of the
// three stage interfaces (DESIGN.md §13): every period it stamps
// time/mode, runs Mapper -> (QoS labelling) -> ViolationForecaster ->
// Actuator, threads the degradation state machine between them, and
// publishes the period to an optional passive observer. Any stage may be
// absent: a null mapper/forecaster leaves that slice of the record at
// its defaults, a null actuator never acts (the no-prevention shape).
//
// With the full Stay-Away wiring (the three-argument constructor) the
// emitted PeriodRecord stream is byte-identical to the historical
// monolithic control loop — the invariant every figure bench and the
// fault golden rest on, pinned by tests/test_runtime.cpp and
// tests/test_fleet.cpp.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/host_port.hpp"
#include "core/period.hpp"
#include "core/stages/actuator.hpp"
#include "core/stages/forecaster.hpp"
#include "core/stages/mapper.hpp"
#include "core/stages/stage.hpp"
#include "obs/observer.hpp"
#include "sim/faults.hpp"
#include "sim/host.hpp"

namespace stayaway::core {

/// The stages a custom pipeline is wired from. Any pointer may be null.
struct StageSet {
  std::unique_ptr<Mapper> mapper;
  std::unique_ptr<ViolationForecaster> forecaster;
  std::unique_ptr<Actuator> actuator;
};

/// Injected stage failure (sim::FaultKind::StageThrow). Raised at
/// on_period entry before any stage state mutates, so the supervisor can
/// recover from the latest checkpoint and replay the period
/// byte-identically (DESIGN.md §17).
class StageThrowError : public std::runtime_error {
 public:
  explicit StageThrowError(double time);
  double time() const { return time_; }

 private:
  double time_;
};

/// Injected stage stall (sim::FaultKind::StageStall): this on_period
/// attempt overran its deterministic watchdog deadline. No stage state
/// has mutated; the supervisor retries in place up to its watchdog
/// budget, then escalates to a full crash recovery.
class StageStallError : public std::runtime_error {
 public:
  explicit StageStallError(double time);
  double time() const { return time_; }

 private:
  double time_;
};

class HostPipeline {
 public:
  /// Full Stay-Away wiring: builds StayAwayMapper, TrajectoryForecaster
  /// and GovernorActuator from `config`. host and probe must outlive the
  /// pipeline.
  HostPipeline(sim::SimHost& host, const sim::QosProbe& probe,
               StayAwayConfig config);

  /// Custom wiring: drive the given stages (each may be null). The
  /// degradation machinery still runs off config.degradation, and the
  /// actuator receives this pipeline's fault-aware ActuationPort.
  HostPipeline(sim::SimHost& host, const sim::QosProbe& probe,
               StayAwayConfig config, StageSet stages);

  ~HostPipeline();
  HostPipeline(const HostPipeline&) = delete;
  HostPipeline& operator=(const HostPipeline&) = delete;

  /// Runs one control period: sample, map, predict, act.
  const PeriodRecord& on_period();

  /// Attaches (or detaches, with nullptr) a passive observer. Must be
  /// re-attached after set_host_label. The observer must outlive the
  /// pipeline or be detached first; it never influences decisions.
  void set_observer(obs::Observer* observer);
  obs::Observer* observer() const { return observer_; }

  /// Labels this pipeline's observability: metric keys gain a
  /// "host.<label>." prefix and every event a "host" field, so N
  /// pipelines can share one observer. An empty label (the default)
  /// keeps names identical to the historical single-host stream. Call
  /// before set_observer.
  void set_host_label(std::string label);
  const std::string& host_label() const { return label_; }

  /// Installs a fault plan (DESIGN.md §12). Must be called before the
  /// first on_period(). With no plan installed (or an empty one) the
  /// emitted PeriodRecord sequence is byte-identical to the fault-free
  /// loop (golden test in tests/test_runtime.cpp).
  void install_faults(const sim::FaultPlan& plan);
  const sim::FaultInjector* fault_injector() const {
    return faults_.has_value() ? &*faults_ : nullptr;
  }
  /// Mutable injector view for the fleet supervisor, which advances the
  /// crash horizon after handling a failure (DESIGN.md §17).
  sim::FaultInjector* mutable_fault_injector() {
    return faults_.has_value() ? &*faults_ : nullptr;
  }
  /// The pipeline's host-facing port — the supervisor fast-forwards a
  /// rebuilt host through its restored actuation journal.
  SimHostActuationPort& actuation_port() { return *port_; }

  /// Checkpoint support (DESIGN.md §17). A pipeline is checkpointable
  /// when every wired stage can snapshot its full state — the synchronous
  /// sample source and a non-landmark embedder for the Stay-Away wiring.
  /// Non-checkpointable pipelines recover by cold replay instead.
  bool checkpointable() const;
  /// Snapshots everything on_period mutates except the record history
  /// (the checkpoint envelope owns the record codec): stage states, the
  /// delivered-actuation journal, the fault injector and the degradation
  /// machine. last_outcome_ is transient and deliberately not captured.
  void save_state(util::StateWriter& w) const;
  /// Mirror of save_state. The pipeline must be freshly built with the
  /// same wiring and the same fault plan installed; stage-presence
  /// mismatches throw util::StateCodecError.
  void load_state(util::StateReader& r);
  /// Seeds the record history of the run being restored. Must be called
  /// before the first live on_period().
  void seed_records(std::vector<PeriodRecord> records);

  const std::vector<PeriodRecord>& records() const { return records_; }
  const StayAwayConfig& config() const { return config_; }
  DegradationState degradation() const { return degradation_; }
  /// The actuator's outcome for the most recent period (empty before the
  /// first period or with no actuator) — what a Pause paused, what a
  /// Resume released, and why.
  const Actuator::Outcome& last_outcome() const { return last_outcome_; }

  /// Typed views of the default stages; null when a custom StageSet
  /// supplied a different implementation (or none).
  StayAwayMapper* stay_away_mapper() { return sa_mapper_; }
  const StayAwayMapper* stay_away_mapper() const { return sa_mapper_; }
  TrajectoryForecaster* trajectory_forecaster() { return sa_forecaster_; }
  const TrajectoryForecaster* trajectory_forecaster() const {
    return sa_forecaster_;
  }
  GovernorActuator* governor_actuator() { return sa_actuator_; }
  const GovernorActuator* governor_actuator() const { return sa_actuator_; }

  /// Cluster wiring seam (DESIGN.md §18): hands the wired actuator out so
  /// a decorator (core/cluster MigrationActuator) can wrap it, then
  /// set_actuator() puts the wrapped stage back. Swap before the first
  /// on_period() and before install_faults-driven state accrues; the
  /// typed governor_actuator() view re-resolves (null when the new stage
  /// is not a GovernorActuator itself).
  std::unique_ptr<Actuator> release_actuator();
  void set_actuator(std::unique_ptr<Actuator> actuator);
  Actuator* actuator() { return actuator_.get(); }
  const Actuator* actuator() const { return actuator_.get(); }

 private:
  void init(StageSet stages);
  /// Updates the degradation state machine with this period's health.
  void update_degradation(const monitor::SampleHealth& health,
                          bool qos_visible);
  /// Publishes the period's metrics and events to the attached observer.
  void publish(const PeriodRecord& rec, const std::vector<sim::VmId>& resumed);
  std::string metric_name(const char* name) const;

  sim::SimHost* host_;
  const sim::QosProbe* probe_;
  StayAwayConfig config_;
  std::unique_ptr<SimHostActuationPort> port_;
  std::unique_ptr<Mapper> mapper_;
  std::unique_ptr<ViolationForecaster> forecaster_;
  std::unique_ptr<Actuator> actuator_;
  StayAwayMapper* sa_mapper_ = nullptr;
  TrajectoryForecaster* sa_forecaster_ = nullptr;
  GovernorActuator* sa_actuator_ = nullptr;
  std::string label_;
  // --- Degraded-mode control loop (DESIGN.md §12). ----------------------
  std::optional<sim::FaultInjector> faults_;
  DegradationState degradation_ = DegradationState::Normal;
  std::size_t qos_blind_streak_ = 0;
  std::size_t healthy_streak_ = 0;
  /// Consecutive stalled on_period attempts at the current period (the
  /// injector stalls the first `magnitude` attempts; see sim::FaultSpec).
  std::size_t stall_attempts_ = 0;
  /// Set on a state transition, consumed by publish() for the event.
  std::optional<std::pair<DegradationState, DegradationState>> transition_;
  std::vector<PeriodRecord> records_;
  Actuator::Outcome last_outcome_;

  // --- Observability (passive; see set_observer). -----------------------
  obs::Observer* observer_ = nullptr;
  struct LoopMetrics {
    obs::Counter periods;
    obs::Counter violations_observed;
    obs::Counter violations_predicted;
    obs::Counter new_representatives;
    obs::Counter pauses;
    obs::Counter resumes;
    obs::Gauge beta;
    obs::Gauge stress;
    obs::Gauge representatives;
    obs::Gauge violation_states;
    obs::Gauge tally_accuracy;
    obs::Gauge embed_iterations;
    obs::Gauge embed_cold_skips;
    obs::Gauge embed_rebuilds;
    obs::Gauge space_invalidations;
    obs::Gauge space_rebuilds;
    obs::Gauge governor_failed_resumes;
    obs::Gauge governor_random_resumes;
    obs::Gauge sampler_samples;
    // Degraded-mode telemetry (DESIGN.md §12).
    obs::Counter quarantined_readings;
    obs::Counter qos_blind_periods;
    obs::Counter degraded_periods;
    obs::Counter degradation_transitions;
    obs::Counter actuation_retries;
    obs::Gauge degradation_state;
    obs::Gauge sample_staleness;
    obs::Gauge actuation_abandoned;
    obs::Gauge faults_injected;
  } metrics_;
};

}  // namespace stayaway::core
