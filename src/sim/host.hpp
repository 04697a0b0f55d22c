// Discrete-time host: owns the VMs, drives the tick loop, resolves
// contention, and keeps the utilization ledger the evaluation reports.
#pragma once

#include <memory>
#include <vector>

#include "sim/contention.hpp"
#include "sim/vm.hpp"

namespace stayaway::sim {

class SimHost {
 public:
  /// tick_seconds is the simulation quantum (default 100 ms).
  explicit SimHost(HostSpec spec, double tick_seconds = 0.1);

  /// Adds a VM; returns its id (dense, starting at 0). The app pointer
  /// must be non-null. start_time is when the VM becomes schedulable;
  /// priority orders sensitive VMs (higher = more important, §2.1).
  VmId add_vm(std::string name, VmKind kind, std::unique_ptr<AppModel> app,
              SimTime start_time = 0.0, int priority = 0);

  std::size_t vm_count() const { return vms_.size(); }
  SimVm& vm(VmId id);
  const SimVm& vm(VmId id) const;

  const HostSpec& spec() const { return spec_; }
  SimTime now() const { return now_; }

  /// Advances the simulation by one tick: collect demands from active VMs,
  /// resolve contention, advance the apps, update ledgers. Once the tick
  /// buffers have grown to the VM count, a tick allocates nothing.
  void step();

  /// Runs `n` ticks.
  void run(std::size_t n);

  /// Host CPU utilization in [0,1] for the most recent tick.
  double instantaneous_cpu_utilization() const { return last_utilization_; }

  /// Ids of the VMs of a given kind.
  std::vector<VmId> vms_of_kind(VmKind kind) const;

 private:
  HostSpec spec_;
  double tick_seconds_;
  SimTime now_ = 0.0;
  std::vector<std::unique_ptr<SimVm>> vms_;
  double last_utilization_ = 0.0;
  // Per-tick buffers, aligned with vms_ and reused by every step().
  std::vector<ResourceDemand> demands_;
  std::vector<Allocation> allocations_;
  std::vector<unsigned char> active_;
};

}  // namespace stayaway::sim
