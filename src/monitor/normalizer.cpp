#include "monitor/normalizer.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stayaway::monitor {

namespace {

// Paranoid audit: everything downstream (dedup radii, map distances,
// Rayleigh scales) assumes usage vectors live in the unit cube.
bool in_unit_interval(const std::vector<double>& values) {
  for (double v : values) {
    if (!(v >= 0.0 && v <= 1.0)) return false;
  }
  return true;
}

}  // namespace

CapacityNormalizer::CapacityNormalizer(const sim::HostSpec& spec,
                                       MetricLayout layout)
    : spec_(spec), layout_(std::move(layout)) {
  SA_REQUIRE(layout_.dimension() > 0, "normalizer needs a non-empty layout");
}

double CapacityNormalizer::capacity_of(MetricKind kind) const {
  switch (kind) {
    case MetricKind::Cpu:
      return spec_.cpu_cores;
    case MetricKind::Memory:
      return spec_.memory_mb;
    case MetricKind::MemBandwidth:
      return spec_.membw_mbps;
    case MetricKind::DiskIo:
      return spec_.disk_mbps;
    case MetricKind::Network:
      return spec_.net_mbps;
  }
  return 1.0;
}

void CapacityNormalizer::normalize(const Measurement& m,
                                   std::vector<double>& out) const {
  SA_REQUIRE(m.values.size() == layout_.dimension(),
             "measurement does not match the layout");
  out.assign(m.values.size(), 0.0);
  for (std::size_t e = 0; e < layout_.entities.size(); ++e) {
    for (std::size_t k = 0; k < layout_.metrics.size(); ++k) {
      std::size_t i = layout_.index_of(e, k);
      double cap = capacity_of(layout_.metrics[k]);
      SA_CHECK(cap > 0.0, "metric capacity must be positive to normalize");
      out[i] = std::clamp(m.values[i] / cap, 0.0, 1.0);
    }
  }
  SA_INVARIANT(in_unit_interval(out),
               "capacity normalization must land in [0,1]");
}

RunningNormalizer::RunningNormalizer(std::size_t dimension)
    : bounds_(dimension) {
  SA_REQUIRE(dimension > 0, "normalizer needs a positive dimension");
}

std::vector<double> RunningNormalizer::observe(const std::vector<double>& values) {
  SA_REQUIRE(values.size() == bounds_.size(), "dimension mismatch");
  std::vector<double> out(values.size(), 0.0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    bounds_[i].observe(values[i]);
    double range = bounds_[i].range();
    out[i] = (range > 0.0) ? (values[i] - bounds_[i].min()) / range : 0.0;
  }
  SA_INVARIANT(in_unit_interval(out),
               "running min-max normalization must land in [0,1]");
  return out;
}

}  // namespace stayaway::monitor
