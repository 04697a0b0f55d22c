#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/cluster/migration.hpp"
#include "sim/faults.hpp"
#include "trace/trace.hpp"

namespace perfbench {
namespace {

namespace trace = stayaway::trace;

/// splitmix64 finalizer: decorrelated sub-seeds from the workload seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

harness::ExperimentSpec stayaway_spec(harness::SensitiveKind sensitive,
                                      harness::BatchKind batch,
                                      double duration_s, std::uint64_t seed) {
  harness::ExperimentSpec spec;
  spec.sensitive = sensitive;
  spec.batch = batch;
  spec.policy = harness::PolicyKind::StayAway;
  spec.duration_s = duration_s;
  spec.sensitive_start_s = 2.0;
  spec.batch_start_s = 15.0;
  spec.seed = seed;
  return spec;
}

// ws-diurnal: one host per webservice mix, each with its paper batch
// partner. The cache model dominates host time. Driven on one worker:
// three concurrent cache-heavy hosts made the wall time swing by ~22%
// between runs on a shared 4-vCPU machine, one worker by ~11%.
harness::FleetSpec ws_diurnal(std::uint64_t seed, bool smoke) {
  const double duration_s = smoke ? 40.0 : 600.0;
  const trace::Trace workload =
      harness::compressed_diurnal(duration_s, 1.5, sub_seed(seed, 0));
  struct Mix {
    const char* name;
    harness::SensitiveKind sensitive;
    harness::BatchKind batch;
  };
  const Mix mixes[] = {
      {"mem", harness::SensitiveKind::WebserviceMem,
       harness::BatchKind::MemBomb},
      {"mix", harness::SensitiveKind::WebserviceMix,
       harness::BatchKind::Batch2},
      {"cpu", harness::SensitiveKind::WebserviceCpu,
       harness::BatchKind::Soplex},
  };
  harness::FleetSpec fleet;
  fleet.workers = 1;
  std::uint64_t stream = 1;
  for (const Mix& m : mixes) {
    harness::ExperimentSpec spec =
        stayaway_spec(m.sensitive, m.batch, duration_s, sub_seed(seed, stream++));
    spec.workload = workload;
    fleet.hosts.push_back({m.name, std::move(spec)});
  }
  return fleet;
}

// vlc-fleet: many cheap hosts, so the control loop and the worker pool
// carry the time.
harness::FleetSpec vlc_fleet(std::uint64_t seed, bool smoke) {
  const double duration_s = smoke ? 60.0 : 14400.0;
  harness::ExperimentSpec base =
      stayaway_spec(harness::SensitiveKind::VlcStream,
                    harness::BatchKind::TwitterAnalysis, duration_s, 0);
  base.workload =
      harness::compressed_diurnal(duration_s, 1.5, sub_seed(seed, 0));
  return harness::replicate_fleet(base, 16, sub_seed(seed, 1), 3);
}

// cluster-recovery: a coordinated flash-crowd fleet under the crash
// supervisor. The surge window of the flash-crowd model is 60..120 s.
harness::FleetSpec cluster_recovery(std::uint64_t seed, bool smoke) {
  const double duration_s = smoke ? 160.0 : 480.0;
  constexpr double kSpareLoad = 0.25;
  constexpr std::size_t kSpares = 7;
  constexpr std::size_t kCrashingSpare = 3;
  harness::FleetSpec fleet;
  fleet.hosts.push_back(
      {"front", stayaway_spec(harness::SensitiveKind::FlashCrowd,
                              harness::BatchKind::None, duration_s,
                              sub_seed(seed, 1))});
  for (std::size_t i = 1; i <= kSpares; ++i) {
    harness::ExperimentSpec spec = stayaway_spec(
        harness::SensitiveKind::FlashCrowd, harness::BatchKind::None,
        duration_s, sub_seed(seed, 1 + i));
    // A constant trace is the flash-crowd model's absolute load fraction.
    spec.workload = trace::Trace({kSpareLoad}, duration_s);
    fleet.hosts.push_back({"spare" + std::to_string(i), std::move(spec)});
  }
  // Two crashes on one spare: a long replay tail mid-run, a short one late.
  stayaway::sim::FaultPlan crashes;
  for (double at : {0.5 * duration_s, 0.85 * duration_s}) {
    stayaway::sim::FaultSpec f;
    f.kind = stayaway::sim::FaultKind::HostCrash;
    f.start_s = at;
    f.end_s = at + 1.0;
    f.probability = 1.0;
    crashes.faults.push_back(f);
  }
  fleet.hosts[kCrashingSpare].experiment.faults = std::move(crashes);
  fleet.supervise = true;
  fleet.checkpoint_every = 10;

  harness::ClusterSpec cluster;
  cluster.mobile.push_back(
      {"crunch", harness::BatchKind::CpuBomb, "front", 15.0});
  // One admission during the surge, one just after it, one late.
  const std::pair<const char*, double> admissions[] = {
      {"arrive-surge", 80.0}, {"arrive-after", 140.0}, {"arrive-late", 300.0}};
  for (const auto& [name, at] : admissions) {
    if (at < duration_s) {
      cluster.admissions.push_back(
          {name, harness::BatchKind::TwitterAnalysis, at});
    }
  }
  fleet.cluster = std::move(cluster);
  return fleet;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::WsDiurnal, Workload::VlcFleet,
                     Workload::ClusterRecovery}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::WsDiurnal:
      return "ws-diurnal";
    case Workload::VlcFleet:
      return "vlc-fleet";
    case Workload::ClusterRecovery:
      return "cluster-recovery";
  }
  return "unknown";
}

harness::FleetSpec make_fleet(Workload w, std::uint64_t seed, bool smoke) {
  switch (w) {
    case Workload::WsDiurnal:
      return ws_diurnal(seed, smoke);
    case Workload::VlcFleet:
      return vlc_fleet(seed, smoke);
    case Workload::ClusterRecovery:
      return cluster_recovery(seed, smoke);
  }
  throw std::logic_error("unknown workload");
}

std::size_t periods_per_host(const harness::FleetSpec& fleet) {
  const harness::ExperimentSpec& spec = fleet.hosts.front().experiment;
  return static_cast<std::size_t>(std::llround(spec.duration_s / spec.period_s));
}

std::size_t effective_workers(const harness::FleetSpec& fleet) {
  if (fleet.cluster.has_value()) return 1;
  return std::max<std::size_t>(1, std::min(fleet.workers, fleet.hosts.size()));
}

std::vector<harness::TwinSpec> twins_for_host(const harness::FleetSpec& fleet,
                                              std::size_t i) {
  std::vector<harness::TwinSpec> twins;
  if (!fleet.cluster.has_value()) return twins;
  for (const harness::MobileVmSpec& m : fleet.cluster->mobile) {
    twins.push_back(
        {m.name, m.kind, m.start_s, m.home == fleet.hosts[i].name});
  }
  for (const harness::AdmissionSpec& a : fleet.cluster->admissions) {
    twins.push_back({a.name, a.kind, a.arrival_s, false});
  }
  return twins;
}

std::unique_ptr<core::HostPipeline> make_pipeline(
    const harness::FleetSpec& fleet, std::size_t i, harness::HostRig& rig) {
  const harness::ExperimentSpec& spec = fleet.hosts[i].experiment;
  auto pipeline = std::make_unique<core::HostPipeline>(
      *rig.host, *rig.probe, harness::derive_stayaway_config(spec));
  if (spec.faults.has_value() && !spec.faults->empty()) {
    pipeline->install_faults(*spec.faults);
  }
  if (fleet.cluster.has_value()) {
    auto mig = std::make_unique<core::cluster::MigrationActuator>(
        pipeline->release_actuator());
    const auto mobile =
        static_cast<std::ptrdiff_t>(fleet.cluster->mobile.size());
    mig->set_mobile(std::vector<stayaway::sim::VmId>(
        rig.twin_ids.begin(), rig.twin_ids.begin() + mobile));
    pipeline->set_actuator(std::move(mig));
  }
  if (fleet.hosts.size() > 1) pipeline->set_host_label(fleet.hosts[i].name);
  return pipeline;
}

}  // namespace perfbench
