// The traced run: drives a fleet through the same public layer calls
// run_fleet makes — build_host_rig, SimHost::run, HostPipeline::on_period,
// the checkpoint functions and ClusterCoordinator::step — and times each
// call from here, with an obs::Observer attached for the per-stage spans.
// Its record stream must equal the untraced run_fleet's byte for byte.
#pragma once

#include <cstddef>
#include <vector>

#include "harness/fleet.hpp"
#include "report.hpp"

namespace perfbench {

struct TracedRun {
  /// Every record digested, and the traced run's own exact counts.
  Outcome outcome;
  /// Per-layer timings and the counts run_fleet does not report.
  std::vector<Metric> metrics;
  double wall_s = 0.0;  // rig builds + driving
  /// Timed layer calls along the critical path: the sequential rig builds
  /// and coordinator steps plus the busiest driving thread.
  double critical_s = 0.0;
  double busy_s = 0.0;  // timed per-host layer calls summed over hosts
  std::size_t workers = 1;
};

TracedRun run_traced(const stayaway::harness::FleetSpec& fleet);

}  // namespace perfbench
