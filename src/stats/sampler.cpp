#include "stats/sampler.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stayaway::stats {

void InverseTransformSampler::reset(const Histogram& hist) {
  SA_REQUIRE(!hist.empty(), "cannot sample from an empty histogram");
  lo_ = hist.lo();
  bin_width_ = hist.bin_width();
  cumulative_.resize(hist.bins());
  double acc = 0.0;
  for (std::size_t i = 0; i < hist.bins(); ++i) {
    acc += hist.mass(i);
    cumulative_[i] = acc;
  }
  // Guard against floating-point drift so upper_bound always lands in range.
  cumulative_.back() = 1.0;
}

double InverseTransformSampler::sample(Rng& rng) const {
  SA_REQUIRE(!cumulative_.empty(), "sampler has no distribution; reset it");
  double u = rng.uniform();
  auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  if (it == cumulative_.end()) --it;
  auto bin = static_cast<std::size_t>(it - cumulative_.begin());
  double jitter = rng.uniform();
  return lo_ + (static_cast<double>(bin) + jitter) * bin_width_;
}

}  // namespace stayaway::stats
