// Per-execution-mode trajectory model (§3.2.3 of the paper).
//
// "To characterize the trajectories, we capture the behaviour of each
// execution mode by the probability density function of the parameters:
// distance d and absolute angle alpha." The underlying measurement is a
// histogram; candidate future states are drawn from it by inverse-
// transform sampling. Modelling per mode matters: "no single prediction
// model can accurately model all the state transitions."
#pragma once

#include <array>
#include <cstddef>
#include <numbers>
#include <vector>

#include "mds/point.hpp"
#include "monitor/mode.hpp"
#include "stats/histogram.hpp"
#include "stats/sampler.hpp"
#include "util/rng.hpp"
#include "util/statecodec.hpp"

namespace stayaway::core {

class TrajectoryModel {
 public:
  /// max_step bounds the step-length histogram range (map steps in a
  /// normalized space are bounded by the space's diameter).
  TrajectoryModel(double max_step, std::size_t bins);

  /// Records one observed transition.
  void observe(const mds::Point2& from, const mds::Point2& to);

  std::size_t observations() const { return observations_; }
  bool ready(std::size_t min_observations) const {
    return observations_ >= min_observations;
  }

  /// The step and angle samplers sample_future() draws through. The
  /// caller keeps them, so their CDFs are rebuilt in place instead of
  /// reallocated on every draw.
  struct Samplers {
    stats::InverseTransformSampler step;
    stats::InverseTransformSampler angle;
  };

  /// Replaces `out` with `count` candidate next-states drawn from the
  /// current position by inverse-transform sampling of the step and
  /// angle histograms. Requires at least one observation.
  void sample_future(const mds::Point2& current, std::size_t count, Rng& rng,
                     Samplers& samplers, std::vector<mds::Point2>& out) const;

  const stats::Histogram& step_histogram() const { return steps_; }
  const stats::Histogram& angle_histogram() const { return angles_; }

  /// Snapshot of histogram contents + observation count (DESIGN.md §17).
  /// A load targets a freshly constructed model with identical
  /// configuration (max_step, bins).
  void persist(util::StateIO& io);

 private:
  stats::Histogram steps_;
  stats::Histogram angles_;
  std::size_t observations_ = 0;
};

/// One trajectory model per execution mode.
class ModeTrajectories {
 public:
  ModeTrajectories(double max_step, std::size_t bins);

  TrajectoryModel& model(monitor::ExecutionMode mode);
  const TrajectoryModel& model(monitor::ExecutionMode mode) const;

  /// Snapshots every per-mode model, in mode order.
  void persist(util::StateIO& io);

 private:
  std::vector<TrajectoryModel> models_;
};

}  // namespace stayaway::core
