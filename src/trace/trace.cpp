#include "trace/trace.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stayaway::trace {

Trace::Trace(std::vector<double> samples, double sample_interval_s)
    : samples_(std::move(samples)), interval_(sample_interval_s) {
  SA_REQUIRE(!samples_.empty(), "trace needs at least one sample");
  SA_REQUIRE(interval_ > 0.0, "sample interval must be positive");
  min_ = *std::min_element(samples_.begin(), samples_.end());
  max_ = *std::max_element(samples_.begin(), samples_.end());
}

double Trace::duration() const {
  return static_cast<double>(samples_.size() - 1) * interval_;
}

double Trace::at(double t) const {
  if (t <= 0.0) return samples_.front();
  double pos = t / interval_;
  auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= samples_.size()) return samples_.back();
  double frac = pos - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[lo + 1] - samples_[lo]);
}

double Trace::normalized_at(double t) const {
  double span = max() - min();
  if (span <= 0.0) return 0.0;
  return (at(t) - min()) / span;
}

double Trace::mean() const {
  double acc = 0.0;
  for (double s : samples_) acc += s;
  return acc / static_cast<double>(samples_.size());
}

}  // namespace stayaway::trace
