// Fixed-range binned histogram.
//
// The trajectory model (§3.2.3 of the paper) characterises each execution
// mode by histograms of step length and absolute angle; new candidate
// states are drawn from these histograms by inverse-transform sampling.
#pragma once

#include <cstddef>
#include <vector>

namespace stayaway::stats {

class Histogram {
 public:
  /// Bins cover [lo, hi) uniformly. Requires lo < hi and bins > 0.
  Histogram(double lo, double hi, std::size_t bins);

  /// Adds an observation. Values outside [lo, hi) are clamped into the
  /// nearest edge bin — resource-usage streams occasionally spike past a
  /// configured range and we want the mass recorded, not dropped.
  void add(double v, double weight = 1.0);

  std::size_t bins() const { return counts_.size(); }
  double lo() const { return lo_; }
  double total_weight() const { return total_; }
  bool empty() const { return total_ <= 0.0; }

  double bin_width() const;
  /// Centre of bin i.
  double bin_center(std::size_t i) const;
  /// Raw accumulated weight in bin i.
  double count(std::size_t i) const;
  /// Normalized density at bin i (integrates to ~1 over the range).
  double density(std::size_t i) const;
  /// Probability mass of bin i (sums to 1).
  double mass(std::size_t i) const;

  /// Index of the bin containing v (after clamping).
  std::size_t bin_index(double v) const;

  /// Raw per-bin weights in bin order, for state snapshots.
  const std::vector<double>& raw_counts() const { return counts_; }

  /// Restores contents captured from an identically configured histogram
  /// (same range and bin count; checked). The accumulated total is
  /// restored verbatim rather than re-summed — re-adding weights would
  /// reorder float addition and break the restore-exactness guarantee
  /// (DESIGN.md §17).
  void restore(const std::vector<double>& counts, double total);

 private:
  double lo_;
  double hi_;
  double total_ = 0.0;
  std::vector<double> counts_;
};

}  // namespace stayaway::stats
