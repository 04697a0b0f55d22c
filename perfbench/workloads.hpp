// The benchmark's three workloads, generated from a seed. README.md says
// why each one exists and which layer it stresses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "harness/fleet.hpp"
#include "harness/rig.hpp"

namespace perfbench {

namespace harness = stayaway::harness;
namespace core = stayaway::core;

enum class Workload { WsDiurnal, VlcFleet, ClusterRecovery };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// Builds the workload's fleet from `seed` (trace seed and every host
/// seed derive from it). `smoke` shrinks the run to a few dozen periods
/// per host for the self-test.
harness::FleetSpec make_fleet(Workload w, std::uint64_t seed, bool smoke);

/// Control periods each host of `fleet` runs.
std::size_t periods_per_host(const harness::FleetSpec& fleet);

/// Threads that actually drive the fleet: run_fleet drives coordinated
/// fleets in lockstep on one thread and otherwise uses at most one worker
/// per host.
std::size_t effective_workers(const harness::FleetSpec& fleet);

/// The cluster twins run_fleet provisions on host `i` (mobile VMs first,
/// then admissions; attached only on a mobile VM's home).
std::vector<harness::TwinSpec> twins_for_host(const harness::FleetSpec& fleet,
                                              std::size_t i);

/// One host's Stay-Away pipeline wired the way run_fleet wires it: fault
/// plan installed, actuator wrapped for migration in cluster fleets, and
/// the observability label set in fleets of more than one host.
std::unique_ptr<core::HostPipeline> make_pipeline(
    const harness::FleetSpec& fleet, std::size_t i, harness::HostRig& rig);

}  // namespace perfbench
