#include "monitor/measurement.hpp"

#include "util/check.hpp"
#include "util/enum_names.hpp"

namespace stayaway::monitor {

constexpr util::EnumName<MetricKind> kMetricNames[] = {
    {MetricKind::Cpu, "cpu"},
    {MetricKind::Memory, "mem"},
    {MetricKind::MemBandwidth, "membw"},
    {MetricKind::DiskIo, "io"},
    {MetricKind::Network, "net"},
};

const char* to_string(MetricKind kind) {
  return util::enum_name(kMetricNames, kind);
}

MetricKind metric_kind_from_string(const std::string& name) {
  return util::enum_value(kMetricNames, name, "metric kind");
}

std::size_t MetricLayout::index_of(std::size_t entity, std::size_t metric) const {
  SA_REQUIRE(entity < entities.size(), "entity index out of range");
  SA_REQUIRE(metric < metrics.size(), "metric index out of range");
  return entity * metrics.size() + metric;
}

double allocation_metric(const sim::Allocation& alloc, MetricKind kind) {
  switch (kind) {
    case MetricKind::Cpu:
      return alloc.granted.cpu_cores;
    case MetricKind::Memory:
      return alloc.granted.memory_mb;
    case MetricKind::MemBandwidth:
      return alloc.granted.membw_mbps;
    case MetricKind::DiskIo:
      // Swap traffic is disk traffic: this is where thrashing becomes
      // visible to the monitor.
      return alloc.granted.disk_mbps + alloc.swap_io_mbps;
    case MetricKind::Network:
      return alloc.granted.net_mbps;
  }
  return 0.0;
}

}  // namespace stayaway::monitor
