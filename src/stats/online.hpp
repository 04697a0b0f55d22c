// Streaming statistics: Welford mean/variance, used by the descriptive
// statistics (stats/descriptive.hpp).
#pragma once

#include <cstddef>

namespace stayaway::stats {

/// Welford's online algorithm for mean and (sample) variance.
class OnlineMoments {
 public:
  void observe(double v);
  std::size_t count() const { return count_; }
  double mean() const;
  /// Unbiased sample variance; zero with fewer than two observations.
  double variance() const;
  double stddev() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace stayaway::stats
