// Measurement vectors: the per-period snapshot of every VM's resource
// usage, M(t) = <VM_i-CPU, VM_i-Memory, VM_i-I/O, VM_i-network> (§3.1).
#pragma once

#include <string>
#include <vector>

#include "sim/resource.hpp"

namespace stayaway::monitor {

/// Which resource signals are sampled per VM. The paper's default set is
/// CPU, memory, I/O and network; memory-bus load can be added where the
/// interference of interest lives in the memory subsystem (§3.1 discusses
/// choosing metrics that characterize the contended subsystem).
enum class MetricKind {
  Cpu,           // cores in use
  Memory,        // resident working set, MB
  MemBandwidth,  // memory-bus traffic, MB/s
  DiskIo,        // disk traffic, MB/s
  Network,       // network traffic, MB/s
};

const char* to_string(MetricKind kind);
/// Inverse of to_string; throws PreconditionError on unknown names.
MetricKind metric_kind_from_string(const std::string& name);

/// Describes the layout of a measurement vector: one block of `metrics`
/// per entity, in order. An entity is a VM, or the aggregated logical
/// batch VM of §5.
struct MetricLayout {
  std::vector<std::string> entities;
  std::vector<MetricKind> metrics;

  std::size_t dimension() const { return entities.size() * metrics.size(); }
  /// Flat index of (entity e, metric m).
  std::size_t index_of(std::size_t entity, std::size_t metric) const;
};

struct Measurement {
  double time = 0.0;
  std::vector<double> values;  // layout.dimension() entries
};

/// Reads one metric kind out of a granted allocation.
double allocation_metric(const sim::Allocation& alloc, MetricKind kind);

}  // namespace stayaway::monitor
