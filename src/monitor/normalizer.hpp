// Per-metric normalization to [0,1] (§4 of the paper).
//
// "While CPU usage ranges between 0 and 100, memory usage does not have a
// fixed upper limit ... This variation causes higher values to introduce
// a bias that can affect the accuracy of MDS mapping. The problem is
// overcome by normalizing all the metric values between [0,1]."
//
// Capacity normalization divides each reading by the host capacity of its
// metric kind — stable across the whole run, so distances mean the same
// thing early and late. A running min-max alternative is provided for
// metrics without a natural capacity.
#pragma once

#include <vector>

#include "monitor/measurement.hpp"
#include "sim/resource.hpp"
#include "stats/online.hpp"

namespace stayaway::monitor {

/// Normalizes by host capacity per metric kind; values clamp into [0,1].
class CapacityNormalizer {
 public:
  CapacityNormalizer(const sim::HostSpec& spec, MetricLayout layout);

  const MetricLayout& layout() const { return layout_; }

  /// Writes a measurement's normalized values into `out`, replacing its
  /// contents (its storage is reused).
  void normalize(const Measurement& m, std::vector<double>& out) const;

  /// Capacity used for a metric kind.
  double capacity_of(MetricKind kind) const;

 private:
  sim::HostSpec spec_;
  MetricLayout layout_;
};

/// Normalizes by the running min/max of each dimension. The first few
/// observations are unstable (range still growing), matching the paper's
/// behaviour that early-phase states are less reliable.
class RunningNormalizer {
 public:
  explicit RunningNormalizer(std::size_t dimension);

  /// Observes a raw vector and returns its normalized form under the
  /// bounds known so far.
  std::vector<double> observe(const std::vector<double>& values);

 private:
  std::vector<stats::OnlineMinMax> bounds_;
};

}  // namespace stayaway::monitor
