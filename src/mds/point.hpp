// 2-D point type for the mapped state space, plus the trajectory-step
// geometry (distance and absolute angle) the predictor is built on.
#pragma once

#include <vector>

namespace stayaway::mds {

struct Point2 {
  double x = 0.0;
  double y = 0.0;

  Point2 operator+(const Point2& o) const { return {x + o.x, y + o.y}; }
  Point2 operator-(const Point2& o) const { return {x - o.x, y - o.y}; }
  bool operator==(const Point2& o) const = default;
};

/// An ordered set of mapped points; index i is the embedding of sample i.
using Embedding = std::vector<Point2>;

/// Euclidean distance between two mapped points.
double distance(const Point2& a, const Point2& b);

/// Absolute angle of the step a -> b against the x axis, in [-pi, pi).
/// §3.2.3: the trajectory is parameterised by step distance and absolute
/// angle. A zero-length step has angle 0 by convention.
double step_angle(const Point2& a, const Point2& b);

/// Destination of a step of the given length and absolute angle from `from`.
Point2 step_from(const Point2& from, double length, double angle);

/// Axis-aligned bounding box of an embedding.
struct BoundingBox {
  double min_x = 0.0;
  double max_x = 0.0;
  double min_y = 0.0;
  double max_y = 0.0;
  double range_x() const { return max_x - min_x; }
  double range_y() const { return max_y - min_y; }
};

/// Bounding box of a non-empty embedding.
BoundingBox bounding_box(const Embedding& points);

/// Median of the two coordinate ranges — the scale parameter `c` of the
/// violation-range formula (§3.2.2: "the median of the coordinate range of
/// the mapped space"). Returns a small positive floor for degenerate maps
/// so the Rayleigh scale stays valid.
double median_coordinate_range(const Embedding& points);

}  // namespace stayaway::mds
