// Unit tests for src/mds: point geometry, distance matrices, classical
// MDS, PCA, landmark MDS and incremental placement.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "mds/classical.hpp"
#include "mds/distance.hpp"
#include "mds/incremental.hpp"
#include "mds/landmark.hpp"
#include "mds/pca.hpp"
#include "mds/point.hpp"
#include "util/check.hpp"

namespace stayaway::mds {
namespace {

constexpr double kPi = std::numbers::pi;

// ---------------------------------------------------------------- point
TEST(Point, DistanceAndArithmetic) {
  Point2 a{0.0, 0.0};
  Point2 b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
  EXPECT_EQ((a + b), b);
  EXPECT_EQ((b - b), a);
}

TEST(Point, StepAngleQuadrants) {
  Point2 o{0.0, 0.0};
  EXPECT_NEAR(step_angle(o, {1.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(step_angle(o, {0.0, 1.0}), kPi / 2.0, 1e-12);
  EXPECT_NEAR(step_angle(o, {-1.0, 0.0}), kPi, 1e-12);
  EXPECT_NEAR(step_angle(o, {0.0, -1.0}), -kPi / 2.0, 1e-12);
}

TEST(Point, ZeroStepHasZeroAngle) {
  Point2 p{1.0, 1.0};
  EXPECT_DOUBLE_EQ(step_angle(p, p), 0.0);
}

TEST(Point, StepFromInvertsStepAngle) {
  Point2 from{2.0, -1.0};
  Point2 to = step_from(from, 3.0, 0.7);
  EXPECT_NEAR(distance(from, to), 3.0, 1e-12);
  EXPECT_NEAR(step_angle(from, to), 0.7, 1e-12);
}

TEST(Point, BoundingBoxAndMedianRange) {
  Embedding pts{{0.0, 0.0}, {4.0, 1.0}, {2.0, 3.0}};
  BoundingBox box = bounding_box(pts);
  EXPECT_DOUBLE_EQ(box.range_x(), 4.0);
  EXPECT_DOUBLE_EQ(box.range_y(), 3.0);
  EXPECT_DOUBLE_EQ(median_coordinate_range(pts), 3.5);
}

TEST(Point, DegenerateMapGetsPositiveScale) {
  Embedding pts{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_GT(median_coordinate_range(pts), 0.0);
  EXPECT_GT(median_coordinate_range({}), 0.0);
}

// ------------------------------------------------------------- distance
TEST(Distance, MatrixSymmetricZeroDiagonal) {
  std::vector<std::vector<double>> v{{0.0, 0.0}, {1.0, 0.0}, {0.0, 2.0}};
  auto d = distance_matrix(v);
  EXPECT_DOUBLE_EQ(d.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(d.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(d.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(d.at(0, 2), 2.0);
  EXPECT_NEAR(d.at(1, 2), std::sqrt(5.0), 1e-12);
}

// ------------------------------------------------------------ classical
TEST(ClassicalMds, RecoversPlanarConfiguration) {
  // Points already in 2-D: classical MDS must reproduce their pairwise
  // distances exactly (up to rigid motion).
  std::vector<std::vector<double>> pts{
      {0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {0.5, 0.5}};
  auto delta = distance_matrix(pts);
  Embedding emb = classical_mds(delta);
  ASSERT_EQ(emb.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      EXPECT_NEAR(distance(emb[i], emb[j]), delta.at(i, j), 1e-8)
          << "pair " << i << "," << j;
    }
  }
}

TEST(ClassicalMds, SinglePointAtOrigin) {
  linalg::Matrix d(1, 1);
  Embedding emb = classical_mds(d);
  ASSERT_EQ(emb.size(), 1u);
  EXPECT_EQ(emb[0], (Point2{0.0, 0.0}));
}

TEST(ClassicalMds, CentersConfiguration) {
  std::vector<std::vector<double>> pts{{5.0, 5.0}, {6.0, 5.0}, {5.0, 7.0}};
  Embedding emb = classical_mds(distance_matrix(pts));
  double cx = 0.0;
  double cy = 0.0;
  for (const auto& p : emb) {
    cx += p.x;
    cy += p.y;
  }
  EXPECT_NEAR(cx, 0.0, 1e-9);
  EXPECT_NEAR(cy, 0.0, 1e-9);
}

TEST(ClassicalMds, HighDimensionalDistancesApproximated) {
  // 3-D configuration that is nearly planar: 2-D embedding should keep
  // distances close.
  std::vector<std::vector<double>> pts{{0.0, 0.0, 0.01},
                                       {1.0, 0.0, 0.0},
                                       {0.0, 1.0, 0.02},
                                       {1.0, 1.0, 0.01}};
  auto delta = distance_matrix(pts);
  Embedding emb = classical_mds(delta);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      EXPECT_NEAR(distance(emb[i], emb[j]), delta.at(i, j), 0.05);
    }
  }
}

// ------------------------------------------------------------------ pca
TEST(Pca, ProjectsAlongDominantAxis) {
  // Strongly elongated cloud along (1,1,0).
  std::vector<std::vector<double>> pts;
  for (int i = -5; i <= 5; ++i) {
    double t = static_cast<double>(i);
    pts.push_back({t, t, 0.01 * t * t});
  }
  PcaModel model = fit_pca(pts);
  EXPECT_GT(model.explained_fraction, 0.99);
  // First axis should be (1,1,~0)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(model.component_x[0]), std::sqrt(0.5), 0.02);
  EXPECT_NEAR(std::abs(model.component_x[1]), std::sqrt(0.5), 0.02);
}

TEST(Pca, ProjectionCentersData) {
  std::vector<std::vector<double>> pts{{10.0, 0.0}, {12.0, 0.0}, {14.0, 0.0}};
  Embedding emb = pca_embed(pts);
  double cx = 0.0;
  for (const auto& p : emb) cx += p.x;
  EXPECT_NEAR(cx, 0.0, 1e-9);
}

TEST(Pca, PreservesVarianceOrdering) {
  std::vector<std::vector<double>> pts{
      {0.0, 0.0}, {4.0, 0.1}, {8.0, -0.1}, {12.0, 0.0}};
  Embedding emb = pca_embed(pts);
  // Spread along x of embedding should dominate y.
  BoundingBox box = bounding_box(emb);
  EXPECT_GT(box.range_x(), 5.0 * box.range_y());
}

TEST(Pca, DimensionMismatchRejected) {
  PcaModel model = fit_pca({{1.0, 2.0}, {2.0, 1.0}});
  EXPECT_THROW(model.project({1.0}), PreconditionError);
}

TEST(Pca, SingleSampleExplainedFractionOne) {
  PcaModel model = fit_pca({{1.0, 2.0}});
  EXPECT_DOUBLE_EQ(model.explained_fraction, 1.0);
}

// ------------------------------------------------------------- landmark
TEST(Landmark, MaxminSpreadsSelection) {
  std::vector<std::vector<double>> pts{
      {0.0, 0.0}, {0.1, 0.0}, {10.0, 0.0}, {0.0, 10.0}, {10.0, 10.0}};
  auto idx = select_landmarks_maxmin(pts, 3);
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 0u);
  // The near-duplicate of point 0 must not be chosen while far corners exist.
  for (std::size_t i : idx) EXPECT_NE(i, 1u);
}

TEST(Landmark, EmbeddingApproximatesDistances) {
  std::vector<std::vector<double>> pts;
  for (int x = 0; x < 5; ++x) {
    for (int y = 0; y < 4; ++y) {
      pts.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  Embedding emb = landmark_embed(pts, 6);
  auto delta = distance_matrix(pts);
  double worst = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      worst = std::max(worst,
                       std::abs(distance(emb[i], emb[j]) - delta.at(i, j)));
    }
  }
  EXPECT_LT(worst, 0.15);
}

TEST(Landmark, PlaceMatchesLandmarkSelfEmbedding) {
  std::vector<std::vector<double>> pts{
      {0.0, 0.0}, {2.0, 0.0}, {0.0, 2.0}, {2.0, 2.0}};
  LandmarkModel model = fit_landmark_mds(pts, 4);
  // Placing a landmark by its own distances must land on its embedding.
  for (std::size_t li = 0; li < model.landmark_indices.size(); ++li) {
    std::vector<double> d;
    for (std::size_t lj : model.landmark_indices) {
      d.push_back(linalg::euclidean_distance(pts[model.landmark_indices[li]],
                                             pts[lj]));
    }
    Point2 placed = model.place(d);
    EXPECT_NEAR(distance(placed, model.landmark_points[li]), 0.0, 1e-6);
  }
}

TEST(Landmark, InvalidCountsRejected) {
  std::vector<std::vector<double>> pts{{0.0}, {1.0}};
  EXPECT_THROW(fit_landmark_mds(pts, 1), PreconditionError);
  EXPECT_THROW(fit_landmark_mds(pts, 3), PreconditionError);
}

// ---------------------------------------------------------- incremental
TEST(Incremental, PlacesPointAtExactSolution) {
  Embedding anchors{{0.0, 0.0}, {2.0, 0.0}, {0.0, 2.0}};
  // Target: the point (1,1): distances sqrt(2), sqrt(2), sqrt(2)... compute.
  Point2 target{1.0, 1.0};
  std::vector<double> d;
  for (const auto& a : anchors) d.push_back(distance(a, target));
  Point2 placed = place_point(anchors, d);
  EXPECT_NEAR(distance(placed, target), 0.0, 1e-4);
}

TEST(Incremental, ZeroDistanceSnapsToAnchor) {
  Embedding anchors{{1.0, 2.0}, {5.0, 5.0}};
  Point2 placed = place_point(anchors, {0.0, 5.0});
  EXPECT_EQ(placed, anchors[0]);
}

TEST(Incremental, StressDecreasesVersusNaiveStart) {
  Embedding anchors{{0.0, 0.0}, {4.0, 0.0}, {0.0, 4.0}, {4.0, 4.0}};
  Point2 target{3.0, 1.0};
  std::vector<double> d;
  for (const auto& a : anchors) d.push_back(distance(a, target));
  Point2 placed = place_point(anchors, d);
  // The point's own stress: squared residuals of its map distances.
  auto stress = [&](const Point2& p) {
    double acc = 0.0;
    for (std::size_t j = 0; j < anchors.size(); ++j) {
      const double diff = d[j] - distance(p, anchors[j]);
      acc += diff * diff;
    }
    return acc;
  };
  EXPECT_LT(stress(placed), stress({0.0, 0.0}) + 1e-12);
  EXPECT_NEAR(stress(placed), 0.0, 1e-6);
}

TEST(Incremental, MismatchedInputsRejected) {
  Embedding anchors{{0.0, 0.0}};
  EXPECT_THROW(place_point(anchors, {1.0, 2.0}), PreconditionError);
  EXPECT_THROW(place_point({}, {}), PreconditionError);
}

}  // namespace
}  // namespace stayaway::mds
