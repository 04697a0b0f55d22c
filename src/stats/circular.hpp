// Circular (directional) statistics for trajectory angles.
//
// Step angles live on [-pi, pi); averaging them linearly is wrong across
// the wrap-around, so the trajectory diagnostics use resultant-vector
// statistics instead.
#pragma once

#include <span>

namespace stayaway::stats {

struct CircularSummary {
  double mean = 0.0;       // circular mean direction, in [-pi, pi)
  double resultant = 0.0;  // mean resultant length in [0,1]; 1 = no spread
  double variance = 0.0;   // 1 - resultant
};

/// Summary statistics of a set of angles (radians). Requires non-empty.
CircularSummary circular_summary(std::span<const double> angles);

}  // namespace stayaway::stats
