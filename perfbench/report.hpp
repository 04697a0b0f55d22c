// What the two benchmark processes print: named metrics and the record
// digests run.py compares across runs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/period.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Observations behind a percentile or mean; 0 for counts and shares.
  std::size_t samples = 0;
};

/// Exact counts of one fleet run. The published ones come from
/// run_fleet's result; the traced run's own bookkeeping must equal them.
struct ExactCounts {
  std::size_t recoveries = 0;
  std::size_t gap_periods_replayed = 0;
  std::size_t divergences = 0;
  std::size_t migrations = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t pauses = 0;
  std::size_t resumes = 0;
  std::size_t representatives_max = 0;
  std::size_t predictions = 0;  // forecasts scored by the tally
  std::size_t predictions_correct = 0;

  bool operator==(const ExactCounts&) const = default;
};

/// What one fleet run produced, reduced to what every run must repeat.
struct Outcome {
  std::vector<std::string> hosts;
  std::vector<std::size_t> counts;  // period records per host
  /// Per host, fnv1a64 of core::encode_record for each period record
  /// (empty when the run was not digested).
  std::vector<std::vector<std::uint64_t>> records;
  std::size_t periods = 0;  // live host-periods
  std::size_t violation_periods = 0;
  double batch_core_s = 0.0;
  ExactCounts exact;
  /// fnv1a64 over the coordinator's event log (0 without a coordinator).
  std::uint64_t events = 0;
};

inline std::uint64_t record_hash(const stayaway::core::PeriodRecord& rec) {
  return stayaway::core::fnv1a64(stayaway::core::encode_record(rec));
}

inline std::uint64_t events_hash(const std::vector<std::string>& events) {
  std::string all;
  for (const std::string& e : events) all += e + "\n";
  return stayaway::core::fnv1a64(all);
}

/// Linear interpolation between order statistics; q in [0, 1].
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

}  // namespace perfbench
