// Per-metric normalization to [0,1] (§4 of the paper).
//
// "While CPU usage ranges between 0 and 100, memory usage does not have a
// fixed upper limit ... This variation causes higher values to introduce
// a bias that can affect the accuracy of MDS mapping. The problem is
// overcome by normalizing all the metric values between [0,1]."
//
// Capacity normalization divides each reading by the host capacity of its
// metric kind — stable across the whole run, so distances mean the same
// thing early and late. The per-dimension capacity vector is the one
// place a dimension's full scale is decided: the quarantine's spike
// bounds and the ring source's full-scale stream read it too.
#pragma once

#include <vector>

#include "monitor/measurement.hpp"
#include "sim/resource.hpp"

namespace stayaway::monitor {

/// Normalizes by host capacity per metric kind; values clamp into [0,1].
class CapacityNormalizer {
 public:
  CapacityNormalizer(const sim::HostSpec& spec, const MetricLayout& layout);

  /// Host capacity of each flat dimension of the layout (index_of order).
  const std::vector<double>& capacity() const { return capacity_; }

  /// Writes a measurement's normalized values into `out`, replacing its
  /// contents (its storage is reused).
  void normalize(const Measurement& m, std::vector<double>& out) const;

 private:
  std::vector<double> capacity_;
};

}  // namespace stayaway::monitor
