#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/online.hpp"
#include "util/check.hpp"

namespace stayaway::stats {

double mean(std::span<const double> xs) {
  SA_REQUIRE(!xs.empty(), "mean of an empty set");
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double percentile(std::span<const double> xs, double p) {
  SA_REQUIRE(!xs.empty(), "percentile of an empty set");
  SA_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  double pos = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= sorted.size()) return sorted.back();
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

double stddev(std::span<const double> xs) {
  OnlineMoments m;
  for (double x : xs) m.observe(x);
  return m.stddev();
}

}  // namespace stayaway::stats
