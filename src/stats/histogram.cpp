#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace stayaway::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  SA_REQUIRE(lo < hi, "histogram range must be non-empty");
  SA_REQUIRE(bins > 0, "histogram needs at least one bin");
  counts_.assign(bins, 0.0);
}

void Histogram::add(double v, double weight) {
  // An infinite weight would make total_ infinite and every mass() an
  // inf/inf NaN, silently poisoning the samplers built on top.
  SA_REQUIRE(std::isfinite(weight) && weight >= 0.0,
             "histogram weight must be finite and non-negative");
  SA_REQUIRE(std::isfinite(v), "histogram observation must be finite");
  counts_[bin_index(v)] += weight;
  total_ += weight;
}

double Histogram::bin_width() const {
  return (hi_ - lo_) / static_cast<double>(counts_.size());
}

double Histogram::bin_center(std::size_t i) const {
  SA_REQUIRE(i < counts_.size(), "bin index out of range");
  return lo_ + (static_cast<double>(i) + 0.5) * bin_width();
}

double Histogram::count(std::size_t i) const {
  SA_REQUIRE(i < counts_.size(), "bin index out of range");
  return counts_[i];
}

double Histogram::density(std::size_t i) const {
  if (total_ <= 0.0) return 0.0;
  return count(i) / (total_ * bin_width());
}

double Histogram::mass(std::size_t i) const {
  if (total_ <= 0.0) return 0.0;
  return count(i) / total_;
}

std::size_t Histogram::bin_index(double v) const {
  if (v < lo_) return 0;
  double f = (v - lo_) / bin_width();
  auto i = static_cast<std::size_t>(f);
  return std::min(i, counts_.size() - 1);
}

void Histogram::restore(const std::vector<double>& counts, double total) {
  SA_REQUIRE(counts.size() == counts_.size(),
             "histogram restore requires a matching bin count");
  counts_ = counts;
  total_ = total;
}

}  // namespace stayaway::stats
