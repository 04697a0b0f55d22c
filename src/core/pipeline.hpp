// HostPipeline — one host's control loop (DESIGN.md §13): every period
// it stamps time/mode, runs StayAwayMapper -> (QoS labelling) ->
// TrajectoryForecaster -> Actuator, threads the degradation state
// machine between them, and publishes the period to an optional passive
// observer. The Stay-Away constructor wires all three stages; the other
// constructor wires only an actuator (the baselines) or nothing at all
// (no-prevention), and leaves the mapping and prediction slices of the
// record at their defaults.
//
// With the full Stay-Away wiring the emitted PeriodRecord stream is
// byte-identical to the historical monolithic control loop — the
// invariant every figure bench and the fault golden rest on, pinned by
// tests/test_runtime.cpp and tests/test_fleet.cpp. The pipeline owns the
// record history and, for checkpoints, an append-only memo of its
// encoded text and that text's running checksum (encoded_records(),
// DESIGN.md §17).
#pragma once

#include <cstdint>
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
#include "obs/observer.hpp"
#include "sim/faults.hpp"
#include "sim/host.hpp"
#include "util/strings.hpp"

namespace stayaway::core {

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

  /// Actuator-only wiring (the baselines), or an empty pipeline that
  /// only records periods when `actuator` is null (no-prevention). The
  /// degradation machinery still runs off config.degradation, and the
  /// actuator receives this pipeline's fault-aware ActuationPort.
  HostPipeline(sim::SimHost& host, const sim::QosProbe& probe,
               StayAwayConfig config, std::unique_ptr<Actuator> actuator);

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

  /// Checkpoint support (DESIGN.md §17). Every stage snapshots its full
  /// state, so this is always true; kept for callers that still ask.
  bool checkpointable() const { return true; }
  /// Describes everything on_period mutates except the record history
  /// (the checkpoint envelope carries the records): stage states, the
  /// delivered-actuation journal, the fault injector and the degradation
  /// machine. last_outcome_ is transient and deliberately not captured.
  /// A load needs a freshly built pipeline with the same wiring and the
  /// same fault plan installed; stage-presence mismatches throw
  /// util::StateCodecError.
  void persist(util::StateIO& io);
  /// Seeds the record history of the run being restored. Must be called
  /// before the first live on_period(). The encoded-record memo stays
  /// empty: the first encoded_records() re-encodes the seeded prefix
  /// from the decoded records, so a restored pipeline re-exports the
  /// canonical text whatever the spelling of the blob it came from.
  void seed_records(std::vector<PeriodRecord> records);

  const std::vector<PeriodRecord>& records() const { return records_; }
  /// The record section of a checkpoint body and its fnv1a64.
  struct RecordSection {
    const std::string& text;
    std::uint64_t fnv;
  };
  /// The `record = <encode_record line>` body line of every record so
  /// far, concatenated in order, with the running fnv1a64 of that text.
  /// An append-only memo: each call encodes and hashes only the records
  /// added since the previous one, so periodic checkpoints cost
  /// O(new periods) record encoding and checksumming instead of
  /// O(history). Filled lazily; a pipeline that is never checkpointed
  /// never pays for it.
  RecordSection encoded_records();
  /// Moves the record history out (for the run's result once the run is
  /// over) and leaves the pipeline with an empty history and memo.
  std::vector<PeriodRecord> take_records();
  // sa-lint: test-observer(tests check faulted runs recover to Normal)
  DegradationState degradation() const { return degradation_; }
  /// The actuator's outcome for the most recent period (empty before the
  /// first period or with no actuator) — what a Pause paused, what a
  /// Resume released, and why.
  const Actuator::Outcome& last_outcome() const { return last_outcome_; }

  /// The mapping and prediction stages; null unless the pipeline was
  /// built with the Stay-Away constructor.
  StayAwayMapper* stay_away_mapper() { return mapper_.get(); }
  const StayAwayMapper* stay_away_mapper() const { return mapper_.get(); }
  TrajectoryForecaster* trajectory_forecaster() { return forecaster_.get(); }
  const TrajectoryForecaster* trajectory_forecaster() const {
    return forecaster_.get();
  }
  /// Typed view of the actuator; null when it is not a GovernorActuator.
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
  std::unique_ptr<Actuator> actuator_;
  GovernorActuator* sa_actuator_ = nullptr;
  std::unique_ptr<StayAwayMapper> mapper_;
  std::unique_ptr<TrajectoryForecaster> forecaster_;
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
  /// encoded_records() memo: the text of records_[0, encoded_count_)
  /// and its fnv1a64.
  std::string encoded_records_;
  std::size_t encoded_count_ = 0;
  std::uint64_t encoded_fnv_ = kFnv1a64Basis;
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
