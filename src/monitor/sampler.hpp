// Host sampler: turns the host's per-VM granted allocations into
// measurement vectors, with optional measurement noise and the §5
// aggregation of all batch VMs into one logical VM.
#pragma once

#include <cstdint>
#include <vector>

#include "monitor/measurement.hpp"
#include "sim/faults.hpp"
#include "sim/host.hpp"
#include "util/rng.hpp"
#include "util/statecodec.hpp"

namespace stayaway::monitor {

struct SamplerConfig {
  std::vector<MetricKind> metrics = {MetricKind::Cpu, MetricKind::Memory,
                                     MetricKind::DiskIo, MetricKind::Network};
  /// §5: "The monitored metrics of all the batch applications are
  /// aggregated together to model their collective behaviour as a single
  /// logical VM." Keeps the mapped space 2-D-representable regardless of
  /// how many batch VMs are co-located.
  bool aggregate_batch = true;
  /// Multiplicative gaussian noise, as a fraction of each reading —
  /// real /proc and perf counters are never exact.
  double noise_fraction = 0.01;
  std::uint64_t seed = 17;
};

class HostSampler {
 public:
  /// The host must outlive the sampler. The layout is fixed at
  /// construction from the host's current VM set.
  HostSampler(const sim::SimHost& host, SamplerConfig options = {});

  const MetricLayout& layout() const { return layout_; }

  /// Samples the most recent tick's granted usage into `out`, reusing
  /// its value storage. Fails loudly (rather than sampling a stale entity
  /// map) when VMs were added to the host after this sampler fixed its
  /// layout.
  void sample(Measurement& out);

  /// Attaches (or detaches, with nullptr) a fault injector: sensor faults
  /// from its plan are applied to every sample, after measurement noise.
  /// The injector must outlive the sampler or be detached first.
  void set_fault_injector(sim::FaultInjector* injector) {
    injector_ = injector;
  }

  /// Measurements taken so far (observability).
  std::size_t samples_taken() const { return samples_taken_; }

  /// Snapshot of the sampler's mutable state: the noise RNG stream and
  /// the sample counter (DESIGN.md §17). Everything else (layout, entity
  /// map) is rebuilt from the host at construction; a restored sampler
  /// on a reconstructed host emits the exact readings the original
  /// would have.
  void persist(util::StateIO& io);

 private:
  const sim::SimHost* host_;
  SamplerConfig options_;
  MetricLayout layout_;
  /// entity index -> VM ids contributing to it
  std::vector<std::vector<sim::VmId>> entity_vms_;
  /// Host VM count the layout was built from; sample() re-checks it.
  std::size_t layout_vm_count_ = 0;
  Rng rng_;
  sim::FaultInjector* injector_ = nullptr;
  std::size_t samples_taken_ = 0;
};

}  // namespace stayaway::monitor
