#include "mds/incremental.hpp"

#include <algorithm>
#include <cstddef>

#include "util/check.hpp"

namespace stayaway::mds {

namespace {

/// Guttman iterations per placement; one free point converges in a
/// handful.
constexpr std::size_t kMaxIterations = 50;
/// Squared movement per iteration below which the placement stops.
constexpr double kTolerance = 1e-9;

}  // namespace

Point2 place_point(const Embedding& anchors,
                   const std::vector<double>& target_distances) {
  SA_REQUIRE(!anchors.empty(), "placement needs at least one anchor");
  SA_REQUIRE(anchors.size() == target_distances.size(),
             "anchors and distances must align");

  // Start near the most similar anchor; a zero-distance target means the
  // point coincides with it.
  std::size_t nearest = 0;
  for (std::size_t i = 1; i < target_distances.size(); ++i) {
    if (target_distances[i] < target_distances[nearest]) nearest = i;
  }
  if (target_distances[nearest] <= 0.0) return anchors[nearest];
  // Offset slightly so the Guttman step has a defined direction to every
  // anchor even when starting on top of one.
  Point2 p{anchors[nearest].x + target_distances[nearest] * 0.5,
           anchors[nearest].y};

  const double n = static_cast<double>(anchors.size());
  for (std::size_t it = 0; it < kMaxIterations; ++it) {
    double accx = 0.0;
    double accy = 0.0;
    for (std::size_t j = 0; j < anchors.size(); ++j) {
      double dj = distance(p, anchors[j]);
      if (dj > 1e-12) {
        double ratio = target_distances[j] / dj;
        accx += anchors[j].x + ratio * (p.x - anchors[j].x);
        accy += anchors[j].y + ratio * (p.y - anchors[j].y);
      } else {
        accx += anchors[j].x;
        accy += anchors[j].y;
      }
    }
    Point2 next{accx / n, accy / n};
    double moved = (next.x - p.x) * (next.x - p.x) +
                   (next.y - p.y) * (next.y - p.y);
    p = next;
    if (moved < kTolerance) break;
  }
  return p;
}

}  // namespace stayaway::mds
