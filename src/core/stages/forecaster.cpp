#include "core/stages/forecaster.hpp"

#include <cmath>

#include "core/statespace.hpp"

namespace stayaway::core {

namespace {

/// Bins of the step-length and angle histograms.
constexpr std::size_t kHistogramBins = 24;
/// "Whenever a majority of the generated sample set fall within a
/// violation range, Stay-Away takes an action."
constexpr double kMajorityFraction = 0.5;
/// Observations a mode's trajectory model needs before it predicts.
constexpr std::size_t kMinModeObservations = 6;
/// Vote threshold while Degraded or Failsafe (DESIGN.md §12). Lower than
/// kMajorityFraction: with imputed inputs the map position is less
/// trustworthy, so the controller pauses on weaker evidence.
constexpr double kDegradedMajorityFraction = 0.35;

}  // namespace

TrajectoryForecaster::TrajectoryForecaster(const StayAwayConfig& config,
                                           std::size_t dimension)
    : modes_(/*max_step=*/std::sqrt(static_cast<double>(dimension)),
             kHistogramBins),
      predictor_(config.prediction_samples, kMajorityFraction,
                 kMinModeObservations),
      rng_(config.seed ^ 0x5eedF00dULL) {}

void TrajectoryForecaster::forecast(const StateSpace& space, PeriodRecord& rec,
                                    bool widened, obs::Observer* observer) {
  // Trajectory observation: within-mode steps only; positions are looked
  // up fresh so re-embeddings cannot smear old coordinates into the model.
  if (prev_rep_.has_value() && prev_mode_ == rec.mode) {
    modes_.model(rec.mode).observe(space.position(*prev_rep_), rec.state);
  }

  obs::Span predict_span = observer != nullptr
                               ? observer->span("predict", rec.time)
                               : obs::Span{};
  // Degraded telemetry widens the decision: a lower vote threshold pauses
  // earlier when the inputs are imputed or the probe just went quiet. Both
  // predict() overloads consume identical Rng draws, so widening cannot
  // shift the random stream (the no-fault golden test depends on that).
  Prediction prediction =
      widened ? predictor_.predict(space, modes_, rec.mode, rec.state, rng_,
                                   kDegradedMajorityFraction)
              : predictor_.predict(space, modes_, rec.mode, rec.state, rng_);
  rec.model_ready = prediction.model_ready;
  rec.violation_predicted = prediction.violation_predicted;

  // Passive accuracy tally: last period's forecast ("will the execution
  // progress into the violation region?", §3.2) against this period's
  // realised outcome (did the mapped state actually enter the region?).
  // Only meaningful when forecasts are not acted upon.
  if (prev_predicted_.has_value()) {
    bool entered = space.in_violation_region(rec.state);
    if (*prev_predicted_ && entered) ++tally_.true_positive;
    if (*prev_predicted_ && !entered) ++tally_.false_positive;
    if (!*prev_predicted_ && entered) ++tally_.false_negative;
    if (!*prev_predicted_ && !entered) ++tally_.true_negative;
  }
  prev_predicted_ = prediction.model_ready
                        ? std::optional<bool>(prediction.violation_predicted)
                        : std::nullopt;
  predict_span.close();

  prev_rep_ = rec.representative;
  prev_mode_ = rec.mode;
}

void TrajectoryForecaster::persist(util::StateIO& io) {
  modes_.persist(io);
  io.rng("forecaster_rng", rng_);
  io.optional("has_prev_rep", prev_rep_,
              [&io](std::size_t& rep) { io.u64("prev_rep", rep); });
  io.optional("has_prev_mode", prev_mode_,
              [&io](monitor::ExecutionMode& mode) {
                io.enumeration("prev_mode", mode,
                               monitor::ExecutionMode::CoLocated);
              });
  io.optional("has_prev_predicted", prev_predicted_,
              [&io](bool& predicted) {
                io.boolean("prev_predicted", predicted);
              });
  io.u64("tally_tp", tally_.true_positive);
  io.u64("tally_fp", tally_.false_positive);
  io.u64("tally_tn", tally_.true_negative);
  io.u64("tally_fn", tally_.false_negative);
}

}  // namespace stayaway::core
