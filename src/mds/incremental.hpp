// Incremental single-point placement against a fixed configuration.
//
// The Stay-Away runtime re-embeds the representative set only when it
// changes; within a period the newest measurement is placed by minimizing
// its own stress term against the existing map. This is the restriction of
// the Guttman transform to one free point and converges in a handful of
// iterations.
#pragma once

#include <vector>

#include "mds/point.hpp"

namespace stayaway::mds {

/// Places a new point whose high-dimensional distances to the already
/// embedded points are `target_distances` (aligned with `anchors`).
/// Starts from the anchor with the smallest target distance.
/// Requires non-empty, equal-length inputs.
Point2 place_point(const Embedding& anchors,
                   const std::vector<double>& target_distances);

}  // namespace stayaway::mds
