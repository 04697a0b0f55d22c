// Unit tests for the state space: labels, violation ranges and the
// Rayleigh-scaled geometry of §3.2.1-3.2.2.
#include <gtest/gtest.h>

#include <cmath>

#include "core/statespace.hpp"
#include "stats/rayleigh.hpp"
#include "util/check.hpp"

namespace stayaway::core {
namespace {

TEST(StateSpace, AddAndLabelStates) {
  StateSpace space;
  space.add_state(StateLabel::Safe);
  space.add_state(StateLabel::Violation);
  EXPECT_EQ(space.size(), 2u);
  EXPECT_EQ(space.safe_count(), 1u);
  EXPECT_EQ(space.violation_count(), 1u);
  EXPECT_EQ(space.label(0), StateLabel::Safe);
  EXPECT_EQ(space.label(1), StateLabel::Violation);
}

TEST(StateSpace, MarkViolationIsSticky) {
  StateSpace space;
  space.add_state(StateLabel::Safe);
  space.force_violation(0);
  EXPECT_EQ(space.label(0), StateLabel::Violation);
  space.force_violation(0);  // idempotent
  EXPECT_EQ(space.violation_count(), 1u);
}

TEST(StateSpace, SyncPositionsSizeChecked) {
  StateSpace space;
  space.add_state(StateLabel::Safe);
  EXPECT_THROW(space.sync_positions({{0.0, 0.0}, {1.0, 1.0}}),
               PreconditionError);
  space.sync_positions({{2.0, 3.0}});
  EXPECT_EQ(space.position(0), (mds::Point2{2.0, 3.0}));
}

TEST(StateSpace, NearestSafeDistance) {
  StateSpace space;
  space.add_state(StateLabel::Safe);
  space.add_state(StateLabel::Safe);
  space.add_state(StateLabel::Violation);
  space.sync_positions({{0.0, 0.0}, {10.0, 0.0}, {4.0, 0.0}});
  auto d = space.nearest_safe_distance({4.0, 0.0});
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, 4.0);
}

TEST(StateSpace, NearestSafeDistanceWithoutSafeStates) {
  StateSpace space;
  space.add_state(StateLabel::Violation);
  space.sync_positions({{0.0, 0.0}});
  EXPECT_FALSE(space.nearest_safe_distance({1.0, 1.0}).has_value());
}

TEST(StateSpace, ViolationRangeUsesRayleighRadius) {
  StateSpace space;
  space.add_state(StateLabel::Safe);
  space.add_state(StateLabel::Violation);
  space.sync_positions({{0.0, 0.0}, {1.0, 0.0}});
  auto ranges = space.violation_ranges();
  ASSERT_EQ(ranges.size(), 1u);
  double c = space.scale();
  EXPECT_DOUBLE_EQ(ranges[0].radius, stats::rayleigh_radius(1.0, c));
  EXPECT_EQ(ranges[0].state, 1u);
}

TEST(StateSpace, ViolationWithNoSafeNeighbourHasZeroRadius) {
  StateSpace space;
  space.add_state(StateLabel::Violation);
  space.add_state(StateLabel::Violation);
  space.sync_positions({{0.0, 0.0}, {3.0, 0.0}});
  for (const auto& r : space.violation_ranges()) {
    EXPECT_DOUBLE_EQ(r.radius, 0.0);
  }
}

TEST(StateSpace, InViolationRegionInsideAndOutside) {
  StateSpace space;
  space.add_state(StateLabel::Safe);
  space.add_state(StateLabel::Violation);
  space.sync_positions({{0.0, 0.0}, {1.0, 0.0}});
  double radius = space.violation_ranges()[0].radius;
  ASSERT_GT(radius, 0.0);
  // Just inside the range (approaching from the safe side).
  EXPECT_TRUE(space.in_violation_region({1.0 - radius * 0.9, 0.0}));
  // Well outside.
  EXPECT_FALSE(space.in_violation_region({-5.0, 0.0}));
  // Exactly on the violation state.
  EXPECT_TRUE(space.in_violation_region({1.0, 0.0}));
}

TEST(StateSpace, EmptySpaceHasNoViolationRegion) {
  StateSpace space;
  EXPECT_FALSE(space.in_violation_region({0.0, 0.0}));
  EXPECT_TRUE(space.violation_ranges().empty());
}

TEST(StateSpace, CloserSafeStateShrinksRange) {
  // §3.2.2: "the closer there is a known safe-state, the lesser is the
  // area of the violation-range" (in the pre-peak regime where knowledge
  // is dense).
  StateSpace far_space;
  far_space.add_state(StateLabel::Safe);
  far_space.add_state(StateLabel::Violation);
  // Use positions well below the Rayleigh peak (c ~ map range).
  far_space.sync_positions({{0.0, 0.0}, {0.4, 0.0}});

  StateSpace near_space;
  near_space.add_state(StateLabel::Safe);
  near_space.add_state(StateLabel::Violation);
  near_space.sync_positions({{0.0, 0.0}, {0.1, 0.0}});

  // Same map scale for comparability: widen both with a distant safe point.
  // (scale() is the median coordinate range.)
  double far_radius = far_space.violation_ranges()[0].radius;
  double near_radius = near_space.violation_ranges()[0].radius;
  EXPECT_GT(far_radius, near_radius);
}

TEST(StateSpace, ScaleIsMedianCoordinateRange) {
  StateSpace space;
  space.add_state(StateLabel::Safe);
  space.add_state(StateLabel::Safe);
  space.sync_positions({{0.0, 0.0}, {4.0, 2.0}});
  EXPECT_DOUBLE_EQ(space.scale(), 3.0);
}

TEST(StateSpace, CoincidentPointsDoNotAbort) {
  // A freshly seeded map can have every state at the origin (positions
  // default before the first embedding). Ranges must degrade to radius 0.
  StateSpace space;
  space.add_state(StateLabel::Violation);
  space.add_state(StateLabel::Safe);
  const auto& ranges = space.violation_ranges();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_DOUBLE_EQ(ranges[0].radius, 0.0);
}

TEST(StateSpace, OutOfRangeQueriesRejected) {
  StateSpace space;
  EXPECT_THROW(space.label(0), PreconditionError);
  EXPECT_THROW(space.position(0), PreconditionError);
  EXPECT_THROW(space.force_violation(0), PreconditionError);
}

}  // namespace
}  // namespace stayaway::core
