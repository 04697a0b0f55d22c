// HostRig — one fully populated simulated host for an experiment: the
// host itself plus the sensitive VM and every batch VM the spec asks
// for, in a fixed construction order (order is part of the determinism
// contract: VM ids, app RNG streams and the sampler's metric layout all
// derive from it). The fleet runner builds one per host, and rebuilds it
// identically after a crash.
#pragma once

#include <memory>
#include <vector>

#include "harness/experiment.hpp"
#include "sim/host.hpp"

namespace stayaway::apps {
class Webservice;
}

namespace stayaway::harness {

/// One cluster twin to pre-provision on a host (DESIGN.md §18). The
/// sampler fixes its metric layout at pipeline construction, so every
/// host that might ever run a migratable or admitted batch VM carries a
/// twin of it from the start — attached only on the VM's current home,
/// detached ("parked") everywhere else until the coordinator attaches
/// it. Single-app batch kinds only (a migration moves exactly one VM).
struct TwinSpec {
  std::string name;
  BatchKind kind = BatchKind::CpuBomb;
  double start_s = 15.0;
  bool attached = false;
};

struct HostRig {
  std::unique_ptr<sim::SimHost> host;
  /// The sensitive app's QoS channel; owned by the app inside the host.
  const sim::QosProbe* probe = nullptr;
  /// Non-null only when the sensitive app is the webservice (its
  /// offered/completed TPS series feed Figures 10-11).
  const apps::Webservice* webservice = nullptr;
  sim::VmId sensitive_id = 0;
  std::vector<sim::VmId> batch_ids;
  /// Cluster twins' VmIds, aligned with the TwinSpec list passed to
  /// build_host_rig (empty outside cluster fleets). Also in batch_ids.
  std::vector<sim::VmId> twin_ids;
};

/// Builds the host and places every VM per the spec. Validates the spec's
/// timing (positive duration, period covering at least one tick).
/// `twins` (cluster fleets) are provisioned last, in list order, after
/// every spec VM — construction order is part of the determinism
/// contract, so the twin list must be identical across rebuilds.
HostRig build_host_rig(const ExperimentSpec& spec,
                       const std::vector<TwinSpec>& twins = {});

/// The Stay-Away config an experiment actually runs with: spec.stayaway
/// plus the harness seed/period splits (sampler seed decorrelated from
/// the control seed).
core::StayAwayConfig derive_stayaway_config(const ExperimentSpec& spec);

}  // namespace stayaway::harness
