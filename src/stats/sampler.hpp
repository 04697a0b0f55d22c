// Inverse-transform sampling from empirical distributions.
//
// §3.2.3: "A random set of samples are then generated following the
// histogram using the inverse transform method, which computes a mapping
// from a uniform distribution to an arbitrary distribution."
#pragma once

#include <vector>

#include "stats/histogram.hpp"
#include "util/rng.hpp"

namespace stayaway::stats {

/// Draws values distributed like the observations recorded in a Histogram.
/// Within the selected bin the value is uniformly jittered, which matches
/// the piecewise-constant density the histogram represents.
class InverseTransformSampler {
 public:
  /// Snapshots the histogram's bin masses, rebuilding the CDF in place
  /// (its storage is reused across calls). Requires a non-empty
  /// histogram; sample() requires a reset first.
  void reset(const Histogram& hist);

  double sample(Rng& rng) const;

 private:
  double lo_ = 0.0;
  double bin_width_ = 0.0;
  std::vector<double> cumulative_;  // cumulative mass per bin; back() == 1
};

}  // namespace stayaway::stats
