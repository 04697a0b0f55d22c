// ActuationPort: the narrow host-facing interface injected into Actuator
// stages. Stage implementations must never touch the simulated host
// directly (enforced by the stage-host-isolation lint rule) — everything
// they need to observe or change on the host goes through this port, so
// a stage is testable against a fake and portable to a real hypervisor
// backend. The production implementation lives inside HostPipeline and
// routes pause/resume delivery through the fault channel.
#pragma once

#include <vector>

#include "sim/vm.hpp"

namespace stayaway::core {

/// One present batch VM and its demand footprint (CPU share + memory
/// share + bus share of the host), in the host's VM enumeration order.
struct VmFootprint {
  sim::VmId id = 0;
  double footprint = 0.0;
};

/// Host-wide resource shares in [0, ~1] per dimension, summed over every
/// VM's granted allocation (the static-threshold baseline's view).
struct ResourceUtilization {
  double cpu = 0.0;
  double memory = 0.0;
  double membw = 0.0;
};

class ActuationPort {
 public:
  virtual ~ActuationPort() = default;

  /// Current simulated time.
  virtual double now() const = 0;

  /// Replaces `out` with the demand footprints of every *present* batch
  /// VM, in enumeration order (out's storage is reused).
  virtual void batch_footprints(std::vector<VmFootprint>& out) const = 0;

  /// Every present batch VM (the failsafe pause set).
  virtual std::vector<sim::VmId> present_batch() const = 0;

  /// Every batch VM, present or not (the blanket-pause baselines' set).
  virtual std::vector<sim::VmId> all_batch() const = 0;

  /// §2.1 fallback targets: present sensitive VMs with a priority below
  /// the highest-priority present sensitive VM, in enumeration order.
  virtual std::vector<sim::VmId> demotion_candidates() const = 0;

  /// Host-wide granted-over-capacity shares (all VMs, all kinds).
  virtual ResourceUtilization utilization() const = 0;

  /// Sends one pause/resume command through the (possibly faulty)
  /// actuation channel; true when it took effect on the host.
  virtual bool pause(sim::VmId id) = 0;
  virtual bool resume(sim::VmId id) = 0;

  /// Migration verbs (DESIGN.md §18). Detach removes a batch VM from the
  /// host entirely (migration-out); attach cold-starts a previously
  /// detached batch VM at the current time (migration-in). Unlike
  /// pause/resume these are coordinator-initiated control-plane moves and
  /// are never routed through the fault channel, so they draw nothing
  /// from the fault RNG. Ports without migration support (fakes, the
  /// baseline adapters) keep the default refusal.
  virtual bool detach(sim::VmId) { return false; }
  virtual bool attach(sim::VmId) { return false; }
};

}  // namespace stayaway::core
