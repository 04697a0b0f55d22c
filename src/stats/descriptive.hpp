// Batch descriptive statistics over sample vectors.
#pragma once

#include <span>

namespace stayaway::stats {

/// Arithmetic mean. Requires non-empty input.
double mean(std::span<const double> xs);

/// Percentile p in [0,100] with linear interpolation. Requires non-empty.
double percentile(std::span<const double> xs, double p);

/// Sample standard deviation; zero for fewer than two samples.
double stddev(std::span<const double> xs);

}  // namespace stayaway::stats
