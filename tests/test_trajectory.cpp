// Unit tests for the per-mode trajectory model and the predictor
// (§3.2.3): histogram learning, inverse-transform futures, majority vote.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/predictor.hpp"
#include "core/trajectory.hpp"
#include "util/check.hpp"

namespace stayaway::core {
namespace {

TEST(TrajectoryModel, RecordsObservations) {
  TrajectoryModel model(2.0, 16);
  EXPECT_EQ(model.observations(), 0u);
  EXPECT_FALSE(model.ready(1));
  model.observe({0.0, 0.0}, {1.0, 0.0});
  EXPECT_EQ(model.observations(), 1u);
  EXPECT_TRUE(model.ready(1));
  EXPECT_DOUBLE_EQ(model.step_histogram().total_weight(), 1.0);
}

TEST(TrajectoryModel, SampleFollowsObservedBias) {
  // Feed a strongly biased walk: step ~1.0 eastwards.
  TrajectoryModel model(2.0, 32);
  for (int i = 0; i < 50; ++i) {
    model.observe({0.0, 0.0}, {1.0, 0.0});
  }
  Rng rng(1);
  TrajectoryModel::Samplers samplers;
  std::vector<mds::Point2> futures;
  model.sample_future({5.0, 5.0}, 200, rng, samplers, futures);
  ASSERT_EQ(futures.size(), 200u);
  double mean_dx = 0.0;
  double mean_dy = 0.0;
  for (const auto& f : futures) {
    mean_dx += f.x - 5.0;
    mean_dy += f.y - 5.0;
  }
  mean_dx /= 200.0;
  mean_dy /= 200.0;
  EXPECT_NEAR(mean_dx, 1.0, 0.1);  // bias east with ~bin-width jitter
  EXPECT_NEAR(mean_dy, 0.0, 0.15);
}

TEST(TrajectoryModel, SampleWithoutObservationsRejected) {
  TrajectoryModel model(2.0, 16);
  Rng rng(2);
  TrajectoryModel::Samplers samplers;
  std::vector<mds::Point2> futures;
  EXPECT_THROW(model.sample_future({0.0, 0.0}, 5, rng, samplers, futures),
               PreconditionError);
}

TEST(TrajectoryModel, MixedDirectionsProduceSpread) {
  TrajectoryModel model(2.0, 32);
  for (int i = 0; i < 20; ++i) {
    model.observe({0.0, 0.0}, {1.0, 0.0});
    model.observe({0.0, 0.0}, {-1.0, 0.0});
  }
  Rng rng(3);
  TrajectoryModel::Samplers samplers;
  std::vector<mds::Point2> futures(7);  // replaced, not appended to
  model.sample_future({0.0, 0.0}, 400, rng, samplers, futures);
  ASSERT_EQ(futures.size(), 400u);
  int east = 0;
  int west = 0;
  for (const auto& f : futures) {
    if (f.x > 0.2) ++east;
    if (f.x < -0.2) ++west;
  }
  EXPECT_GT(east, 100);
  EXPECT_GT(west, 100);
}

TEST(ModeTrajectories, ModelsAreIndependent) {
  ModeTrajectories modes(2.0, 16);
  modes.model(monitor::ExecutionMode::CoLocated).observe({0, 0}, {1, 0});
  EXPECT_EQ(modes.model(monitor::ExecutionMode::CoLocated).observations(), 1u);
  EXPECT_EQ(modes.model(monitor::ExecutionMode::SensitiveOnly).observations(),
            0u);
  EXPECT_EQ(modes.model(monitor::ExecutionMode::Idle).observations(), 0u);
  EXPECT_EQ(modes.model(monitor::ExecutionMode::BatchOnly).observations(), 0u);
}

// -------------------------------------------------------------- predictor
class PredictorTest : public ::testing::Test {
 protected:
  PredictorTest() : modes_(4.0, 32), rng_(7) {}

  /// A state space with one violation at (1, 0) and a safe state at origin.
  StateSpace make_space() {
    StateSpace space;
    space.add_state(StateLabel::Safe);
    space.add_state(StateLabel::Violation);
    space.sync_positions({{0.0, 0.0}, {1.0, 0.0}});
    return space;
  }

  void train_eastward(monitor::ExecutionMode mode, double step) {
    for (int i = 0; i < 30; ++i) {
      modes_.model(mode).observe({0.0, 0.0}, {step, 0.0});
    }
  }

  ModeTrajectories modes_;
  Rng rng_;
};

TEST_F(PredictorTest, PredictsViolationWhenHeadingIntoRange) {
  StateSpace space = make_space();
  train_eastward(monitor::ExecutionMode::CoLocated, 0.4);
  Predictor predictor(/*samples=*/5, /*majority=*/0.5, /*min_obs=*/5);
  // Current state at (0.6, 0): a 0.4 step east lands on the violation.
  Prediction p = predictor.predict(space, modes_,
                                   monitor::ExecutionMode::CoLocated,
                                   {0.6, 0.0}, rng_);
  EXPECT_TRUE(p.model_ready);
  EXPECT_TRUE(p.violation_predicted);
  EXPECT_GT(p.samples_in_violation, p.samples / 2);
}

TEST_F(PredictorTest, NoPredictionWhenHeadingAway) {
  StateSpace space = make_space();
  train_eastward(monitor::ExecutionMode::CoLocated, 0.4);
  Predictor predictor(5, 0.5, 5);
  // Heading east from far west of the violation: lands around (-4.6).
  Prediction p = predictor.predict(space, modes_,
                                   monitor::ExecutionMode::CoLocated,
                                   {-5.0, 0.0}, rng_);
  EXPECT_TRUE(p.model_ready);
  EXPECT_FALSE(p.violation_predicted);
}

TEST_F(PredictorTest, NotReadyWithoutEnoughObservations) {
  StateSpace space = make_space();
  modes_.model(monitor::ExecutionMode::CoLocated).observe({0, 0}, {0.4, 0});
  Predictor predictor(5, 0.5, /*min_obs=*/10);
  Prediction p = predictor.predict(space, modes_,
                                   monitor::ExecutionMode::CoLocated,
                                   {0.6, 0.0}, rng_);
  EXPECT_FALSE(p.model_ready);
  EXPECT_FALSE(p.violation_predicted);
}

TEST_F(PredictorTest, NotReadyWithoutKnownViolations) {
  StateSpace space;
  space.add_state(StateLabel::Safe);
  space.sync_positions({{0.0, 0.0}});
  train_eastward(monitor::ExecutionMode::CoLocated, 0.4);
  Predictor predictor(5, 0.5, 5);
  Prediction p = predictor.predict(space, modes_,
                                   monitor::ExecutionMode::CoLocated,
                                   {0.6, 0.0}, rng_);
  EXPECT_FALSE(p.model_ready);
}

TEST_F(PredictorTest, ModeSpecificModelsUsed) {
  StateSpace space = make_space();
  // Train only the co-located model; sensitive-only model stays empty.
  train_eastward(monitor::ExecutionMode::CoLocated, 0.4);
  Predictor predictor(5, 0.5, 5);
  Prediction p = predictor.predict(space, modes_,
                                   monitor::ExecutionMode::SensitiveOnly,
                                   {0.6, 0.0}, rng_);
  EXPECT_FALSE(p.model_ready);
}

TEST_F(PredictorTest, MajorityFractionControlsSensitivity) {
  StateSpace space = make_space();
  // Half the steps head into the violation, half away.
  for (int i = 0; i < 20; ++i) {
    modes_.model(monitor::ExecutionMode::CoLocated).observe({0, 0}, {0.4, 0});
    modes_.model(monitor::ExecutionMode::CoLocated).observe({0, 0}, {-0.4, 0});
  }
  Predictor lenient(40, /*majority=*/0.9, 5);
  Predictor strict(40, /*majority=*/0.2, 5);
  Prediction pl = lenient.predict(space, modes_,
                                  monitor::ExecutionMode::CoLocated,
                                  {0.6, 0.0}, rng_);
  Prediction ps = strict.predict(space, modes_,
                                 monitor::ExecutionMode::CoLocated,
                                 {0.6, 0.0}, rng_);
  EXPECT_FALSE(pl.violation_predicted);  // ~50% in range < 90%
  EXPECT_TRUE(ps.violation_predicted);   // ~50% in range > 20%
}

TEST_F(PredictorTest, InvalidConfigRejected) {
  EXPECT_THROW(Predictor(0, 0.5, 5), PreconditionError);
  EXPECT_THROW(Predictor(5, 1.5, 5), PreconditionError);
}

}  // namespace
}  // namespace stayaway::core
