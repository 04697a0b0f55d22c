// TrajectoryForecaster: the paper's Prediction stage (§3.2) as a
// pipeline stage. Owns the per-mode trajectory models, the sampled-vote
// predictor with its private RNG stream, and the passive accuracy tally.
#pragma once

#include <cstddef>
#include <optional>

#include "core/config.hpp"
#include "core/period.hpp"
#include "core/predictor.hpp"
#include "core/statespace.hpp"
#include "core/trajectory.hpp"
#include "obs/observer.hpp"
#include "util/rng.hpp"
#include "util/statecodec.hpp"

namespace stayaway::core {

class TrajectoryForecaster {
 public:
  /// `dimension` is the metric-space dimension (bounds the trajectory
  /// step length, since normalized coordinates live in [0,1]^dimension).
  TrajectoryForecaster(const StayAwayConfig& config, std::size_t dimension);

  /// Observes the latest within-mode trajectory step, fills
  /// rec.model_ready and rec.violation_predicted, and scores last
  /// period's forecast against this period's realised position.
  /// `widened` lowers the vote threshold under degraded telemetry without
  /// shifting the RNG stream.
  void forecast(const StateSpace& space, PeriodRecord& rec, bool widened,
                obs::Observer* observer);

  const ModeTrajectories& trajectories() const { return modes_; }
  const PredictionTally& tally() const { return tally_; }

  /// Snapshot of the per-mode trajectory models, vote RNG, the carried
  /// previous-period observation and the accuracy tally (DESIGN.md §17).
  void persist(util::StateIO& io);

 private:
  ModeTrajectories modes_;
  Predictor predictor_;
  Rng rng_;
  std::optional<std::size_t> prev_rep_;
  std::optional<monitor::ExecutionMode> prev_mode_;
  std::optional<bool> prev_predicted_;  // last period's passive prediction
  PredictionTally tally_;
};

}  // namespace stayaway::core
