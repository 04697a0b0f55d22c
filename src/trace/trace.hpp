// Workload intensity traces.
//
// A Trace is a uniformly sampled series of request intensities; apps look
// up the intensity for the current simulated time (linear interpolation)
// to scale their demand. The Wikipedia read trace the paper uses (Fig. 1)
// is no longer downloadable, so traces here come from the generator in
// diurnal.hpp.
#pragma once

#include <cstddef>
#include <vector>

namespace stayaway::trace {

class Trace {
 public:
  /// samples[i] is the intensity at time i * sample_interval_s.
  /// Requires at least one sample and a positive interval.
  Trace(std::vector<double> samples, double sample_interval_s);

  std::size_t size() const { return samples_.size(); }
  double duration() const;
  const std::vector<double>& samples() const { return samples_; }

  /// Intensity at time t (seconds), linearly interpolated. Times before
  /// the start clamp to the first sample, past the end to the last.
  double at(double t) const;

  /// Intensity normalized to [0,1] by the trace's own min/max.
  double normalized_at(double t) const;

  /// Extremes of the samples, computed once at construction.
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const;

 private:
  std::vector<double> samples_;
  double interval_;
  double min_;
  double max_;
};

}  // namespace stayaway::trace
