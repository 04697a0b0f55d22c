#include "stats/online.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace stayaway::stats {

void OnlineMoments::observe(double v) {
  ++count_;
  double delta = v - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (v - mean_);
}

double OnlineMoments::mean() const {
  SA_REQUIRE(count_ > 0, "mean of an empty stream");
  return mean_;
}

double OnlineMoments::variance() const {
  if (count_ < 2) return 0.0;
  // Welford's m2 can drift an ulp below zero when all samples are (nearly)
  // identical; clamping keeps stddev() out of sqrt(-0.0…) NaN territory.
  return std::max(0.0, m2_ / static_cast<double>(count_ - 1));
}

double OnlineMoments::stddev() const { return std::sqrt(variance()); }

}  // namespace stayaway::stats
