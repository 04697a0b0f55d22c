#include "monitor/normalizer.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stayaway::monitor {

namespace {

double host_capacity(const sim::HostSpec& spec, MetricKind kind) {
  switch (kind) {
    case MetricKind::Cpu:
      return spec.cpu_cores;
    case MetricKind::Memory:
      return spec.memory_mb;
    case MetricKind::MemBandwidth:
      return spec.membw_mbps;
    case MetricKind::DiskIo:
      return spec.disk_mbps;
    case MetricKind::Network:
      return spec.net_mbps;
  }
  return 1.0;
}

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
                                       const MetricLayout& layout) {
  SA_REQUIRE(layout.dimension() > 0, "normalizer needs a non-empty layout");
  capacity_.reserve(layout.dimension());
  for (std::size_t e = 0; e < layout.entities.size(); ++e) {
    for (MetricKind kind : layout.metrics) {
      const double cap = host_capacity(spec, kind);
      SA_CHECK(cap > 0.0, "metric capacity must be positive to normalize");
      capacity_.push_back(cap);
    }
  }
}

void CapacityNormalizer::normalize(const Measurement& m,
                                   std::vector<double>& out) const {
  SA_REQUIRE(m.values.size() == capacity_.size(),
             "measurement does not match the layout");
  out.resize(m.values.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = std::clamp(m.values[i] / capacity_[i], 0.0, 1.0);
  }
  SA_INVARIANT(in_unit_interval(out),
               "capacity normalization must land in [0,1]");
}

}  // namespace stayaway::monitor
