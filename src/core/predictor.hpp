// Violation prediction (§3.2.3): sample candidate next-states from the
// current mode's trajectory model and vote them against the violation
// ranges. "Whenever a majority of the generated sample set fall within a
// violation range, Stay-Away takes an action to prevent degradation."
#pragma once

#include <vector>

#include "core/statespace.hpp"
#include "core/trajectory.hpp"
#include "mds/point.hpp"
#include "monitor/mode.hpp"
#include "util/rng.hpp"

namespace stayaway::core {

struct Prediction {
  bool violation_predicted = false;
  /// False when the mode's model lacked observations or no violation is
  /// known yet — in that case violation_predicted is always false.
  bool model_ready = false;
  std::size_t samples = 0;
  std::size_t samples_in_violation = 0;
};

class Predictor {
 public:
  /// sample_count: candidates drawn per prediction (the paper uses 5).
  /// majority_fraction: fraction of candidates that must land in a
  /// violation region to predict a violation (strictly more than).
  /// min_observations: per-mode trajectory observations required.
  Predictor(std::size_t sample_count, double majority_fraction,
            std::size_t min_observations);

  Prediction predict(const StateSpace& space, const ModeTrajectories& modes,
                     monitor::ExecutionMode mode, const mds::Point2& current,
                     Rng& rng);

  /// Same, with an explicit vote threshold overriding the configured
  /// majority_fraction — the degraded-mode control loop widens its
  /// decision by lowering the threshold on imputed inputs (DESIGN.md
  /// §12). Consumes exactly the same Rng draws as the overload above.
  Prediction predict(const StateSpace& space, const ModeTrajectories& modes,
                     monitor::ExecutionMode mode, const mds::Point2& current,
                     Rng& rng, double majority_fraction);

 private:
  std::size_t sample_count_;
  double majority_fraction_;
  std::size_t min_observations_;
  // Draw scratch reused by every predict(): a steady-state prediction
  // allocates nothing.
  TrajectoryModel::Samplers samplers_;
  std::vector<mds::Point2> candidates_;
};

}  // namespace stayaway::core
