#include "stats/circular.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace stayaway::stats {

CircularSummary circular_summary(std::span<const double> angles) {
  SA_REQUIRE(!angles.empty(), "circular summary of an empty set");
  double sx = 0.0;
  double sy = 0.0;
  for (double a : angles) {
    sx += std::cos(a);
    sy += std::sin(a);
  }
  double n = static_cast<double>(angles.size());
  CircularSummary out;
  // |Σe^{iθ}|/n is mathematically ≤ 1, but cos²+sin² can land an ulp above
  // 1 in floating point; without the clamp the variance goes negative.
  out.resultant = std::min(1.0, std::sqrt(sx * sx + sy * sy) / n);
  out.mean = std::atan2(sy, sx);
  out.variance = 1.0 - out.resultant;
  return out;
}

}  // namespace stayaway::stats
