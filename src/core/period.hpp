// The per-period contract shared by every pipeline stage: the
// PeriodRecord each stage fills its slice of, its one text form
// (encode_record / decode_record), the degradation state machine the
// pipeline threads through the stages, and the passive
// prediction-accuracy tally. Split out of runtime.hpp so stage
// implementations (src/core/stages/) can speak the record vocabulary
// without seeing the host or the monolithic runtime.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "core/governor.hpp"
#include "mds/point.hpp"
#include "monitor/mode.hpp"

namespace stayaway::core {

/// Degradation state machine (DESIGN.md §12). Normal: full telemetry,
/// paper behaviour. Degraded: running on imputed samples or a briefly
/// blind QoS probe — decisions widen conservatively. Failsafe: QoS-blind
/// past the failsafe patience — every batch VM is paused until
/// telemetry recovers. Recovery steps down one level at a time with
/// hysteresis (kRecoveryPeriods in core/pipeline.cpp).
enum class DegradationState {
  Normal = 0,
  Degraded = 1,
  Failsafe = 2,
};

inline const char* to_string(DegradationState state) {
  switch (state) {
    case DegradationState::Normal:
      return "normal";
    case DegradationState::Degraded:
      return "degraded";
    case DegradationState::Failsafe:
      return "failsafe";
  }
  return "unknown";
}

/// Everything the pipeline learned and did in one control period. Each
/// stage owns a slice: the StayAwayMapper fills the mapping fields
/// (representative, state, stress, quarantine health), the
/// TrajectoryForecaster the prediction fields, the Actuator the action
/// fields; the pipeline itself stamps time/mode/QoS/degradation.
struct PeriodRecord {
  double time = 0.0;
  monitor::ExecutionMode mode = monitor::ExecutionMode::Idle;
  mds::Point2 state;
  std::size_t representative = 0;
  bool new_representative = false;
  bool violation_observed = false;
  bool violation_predicted = false;
  bool model_ready = false;
  ThrottleAction action = ThrottleAction::None;
  bool batch_paused_after = false;
  double stress = 0.0;
  double beta = 0.0;
  // --- Degraded-mode telemetry (defaults describe a healthy period, so
  // fault-free records compare equal to the historical sequence). ------
  DegradationState degradation = DegradationState::Normal;
  std::size_t quarantined_dims = 0;  // readings imputed this period
  std::size_t max_staleness = 0;     // longest consecutive-imputation run
  bool qos_visible = true;           // the probe reported this period
  std::size_t actuation_retries = 0;  // commands re-issued this period
  bool actuation_pending = false;     // ledger still diverged afterwards
  // --- Streaming-ingestion telemetry (DESIGN.md §15). Filled only by a
  // streaming SampleSource; the synchronous path leaves all four at 0,
  // so its encoded records stay byte-identical to the historical
  // format (encode_record emits this block only when any field is set).
  std::size_t samples_ingested = 0;   // samples drained this period
  std::size_t late_samples = 0;       // out-of-order arrivals admitted
  std::size_t duplicate_samples = 0;  // repeat deliveries dropped
  std::size_t overflow_drops = 0;     // ring overflow since last period

  // --- Cluster telemetry (DESIGN.md §18). Filled only when a
  // ClusterCoordinator is active; coordinator-off runs leave both at 0,
  // so their encoded records stay byte-identical to the historical
  // format (encode_record emits this block only when any field is set).
  std::size_t migrations_out = 0;  // batch VMs detached this period
  std::size_t migrations_in = 0;   // batch VMs attached this period

  /// Any streaming-ingestion field set this period?
  bool ingest_any() const {
    return samples_ingested + late_samples + duplicate_samples +
               overflow_drops >
           0;
  }

  /// Any cluster field set this period?
  bool cluster_any() const { return migrations_out + migrations_in > 0; }

  bool operator==(const PeriodRecord& o) const = default;
};

/// The one text form of a PeriodRecord (DESIGN.md §14): a single line of
/// space-separated `key=value` tokens — 19 fixed fields (t mode x y rep
/// newrep vobs vpred model act paused stress beta deg qdims stale qosvis
/// retries pending), then the optional ingest block (ing late dup ovf)
/// and the optional cluster block (migout migin), each emitted only when
/// any of its fields is non-zero. Doubles use format_double_exact, so
/// decode_record inverts it field for field and byte equality of lines
/// is record equality, exact even on NaN coordinates (where operator==
/// would lie). Run-log record lines, checkpoint `record = ` lines, the
/// supervisor's divergence check and record digests all use it.
std::string encode_record(const PeriodRecord& rec);
/// Appends encode_record(rec) to `out` in place, with no temporaries
/// (the checkpoint record memo's writer).
void append_record(std::string& out, const PeriodRecord& rec);

/// Inverse of encode_record. Throws util::StateCodecError on a malformed
/// number, an unknown, missing or reordered field, an out-of-range
/// mode/act/deg, or trailing tokens.
PeriodRecord decode_record(std::string_view line);

/// Passive prediction-vs-outcome tallies: each period's forecast ("will
/// the execution progress into the violation region?") scored against the
/// next period's realised map position. Meaningful when actions are
/// disabled (an acted-on prediction masks its own outcome).
struct PredictionTally {
  std::size_t true_positive = 0;
  std::size_t false_positive = 0;
  std::size_t true_negative = 0;
  std::size_t false_negative = 0;

  std::size_t total() const {
    return true_positive + false_positive + true_negative + false_negative;
  }
  double accuracy() const {
    std::size_t t = total();
    if (t == 0) return 0.0;
    return static_cast<double>(true_positive + true_negative) /
           static_cast<double>(t);
  }
};

}  // namespace stayaway::core
