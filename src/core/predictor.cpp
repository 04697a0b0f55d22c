#include "core/predictor.hpp"

#include "util/check.hpp"

namespace stayaway::core {

Predictor::Predictor(std::size_t sample_count, double majority_fraction,
                     std::size_t min_observations)
    : sample_count_(sample_count),
      majority_fraction_(majority_fraction),
      min_observations_(min_observations) {
  SA_REQUIRE(sample_count > 0, "need at least one prediction sample");
  SA_REQUIRE(majority_fraction >= 0.0 && majority_fraction <= 1.0,
             "majority fraction must be in [0,1]");
}

Prediction Predictor::predict(const StateSpace& space,
                              const ModeTrajectories& modes,
                              monitor::ExecutionMode mode,
                              const mds::Point2& current, Rng& rng) {
  return predict(space, modes, mode, current, rng, majority_fraction_);
}

Prediction Predictor::predict(const StateSpace& space,
                              const ModeTrajectories& modes,
                              monitor::ExecutionMode mode,
                              const mds::Point2& current, Rng& rng,
                              double majority_fraction) {
  SA_REQUIRE(majority_fraction >= 0.0 && majority_fraction <= 1.0,
             "majority fraction must be in [0,1]");
  Prediction out;
  const TrajectoryModel& model = modes.model(mode);
  if (!model.ready(min_observations_) || space.violation_count() == 0) {
    return out;  // nothing to predict against yet
  }
  out.model_ready = true;
  // ready(0) holds even for a model with zero observations, and
  // sample_future requires at least one — only sample when it can.
  candidates_.clear();
  if (model.observations() > 0) {
    model.sample_future(current, sample_count_, rng, samplers_, candidates_);
  }
  out.samples = candidates_.size();
  if (out.samples == 0) {
    // No candidates: nothing to vote on. Without this guard the fraction
    // below is 0/0 (NaN) and the comparison silently reads as "no
    // violation" — return the non-predicting result explicitly instead.
    return out;
  }
  for (const auto& p : candidates_) {
    if (space.in_violation_region(p)) ++out.samples_in_violation;
  }
  SA_CHECK(out.samples_in_violation <= out.samples,
           "violating candidates cannot outnumber the sample set");
  double fraction = static_cast<double>(out.samples_in_violation) /
                    static_cast<double>(out.samples);
  SA_CHECK(fraction >= 0.0 && fraction <= 1.0,
           "violation vote fraction must be a probability");
  out.violation_predicted = fraction > majority_fraction;
  return out;
}

}  // namespace stayaway::core
