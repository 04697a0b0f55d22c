// Fleet experiment runner (DESIGN.md §13): N named per-host experiment
// specs driven as independent HostPipelines by one period loop,
// optionally concurrently. Each host gets its own simulated host, VM set,
// RNG streams and degradation state, and yields one ExperimentResult.
// This is the only run driver: run_experiment is a fleet of one host.
// Pinned goldens in tests/test_fleet.cpp hold the single-host path to
// its historical output, fault-free and under a fault plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster/coordinator.hpp"
#include "core/period.hpp"
#include "harness/experiment.hpp"

namespace stayaway::harness {

/// Deterministic per-host seed split: avalanches the fleet base seed and
/// the host index through independent splitmix64 finalizer rounds before
/// combining, so sibling hosts get decorrelated RNG streams while host
/// i's stream is reproducible across runs and fleet sizes. The earlier
/// additive mixer (`finalize(base + gamma * (i + 1))`) made
/// fleet_host_seed(base + gamma, i) collide with fleet_host_seed(base,
/// i + 1) — two fleets whose base seeds differed by the golden gamma
/// shared shifted host streams; the two-round mix has no such lattice
/// (pinned by the independence tests in tests/test_fleet.cpp).
std::uint64_t fleet_host_seed(std::uint64_t base, std::size_t host_index);

/// Passive per-period recorder port (DESIGN.md §14): run_fleet hands
/// every freshly emitted PeriodRecord to the attached sink, tagged with
/// the owning host's name. Implementations must be thread-safe — with
/// workers > 1 the fleet invokes the sink concurrently from different
/// workers (always in period order per host). Sinks are strictly
/// observational: they must not touch hosts or pipelines.
class PeriodSink {
 public:
  virtual ~PeriodSink() = default;
  virtual void record_period(const std::string& host,
                             const core::PeriodRecord& rec) = 0;
};

/// What the supervisor did for one host (DESIGN.md §17). All counters
/// are lifetime totals over the host's run.
struct RecoveryReport {
  std::size_t crashes = 0;           // HostCrash signals handled
  std::size_t stage_throws = 0;      // StageThrow exceptions trapped
  std::size_t stalls = 0;            // stalled attempts retried in place
  std::size_t watchdog_trips = 0;    // stalls escalated past the budget
  std::size_t recoveries = 0;        // completed warm/cold recoveries
  std::size_t corrupt_checkpoints_dropped = 0;
  std::size_t cold_starts = 0;       // recoveries with no usable checkpoint
  std::size_t checkpoints_saved = 0;
  std::size_t gap_periods_replayed = 0;
  /// Replayed records that differed from the crashed run's history — the
  /// determinism guarantee says this stays zero; the fuzzer's
  /// checkpoint-divergence detector fails a run on any other value.
  std::size_t divergences = 0;

  bool any_failures() const {
    return crashes + stage_throws + stalls + watchdog_trips +
               corrupt_checkpoints_dropped >
           0;
  }
};

/// A batch VM the cluster coordinator may migrate between hosts
/// (DESIGN.md §18). Pre-provisioned as a twin on every host: attached on
/// `home` at start_s, parked (detached) everywhere else. Single-app
/// batch kinds only.
struct MobileVmSpec {
  std::string name;
  BatchKind kind = BatchKind::CpuBomb;
  std::string home;
  double start_s = 15.0;
};

/// An incoming batch VM asking to join the cluster at arrival_s. Parked
/// on every host until the coordinator admits it (or rejects it once the
/// queue patience runs out).
struct AdmissionSpec {
  std::string name;
  BatchKind kind = BatchKind::CpuBomb;
  double arrival_s = 60.0;
};

/// Cluster coordination for a fleet (DESIGN.md §18). Setting this turns
/// run_fleet into a coordinated run: the fleet's workers drive one
/// period at a time, the ClusterCoordinator steps between fleet periods
/// with every worker at the period barrier, and every host's actuator is
/// wrapped in a MigrationActuator. Results do not depend on the worker
/// count. Absent, the fleet behaves exactly as before — byte-identical
/// to a coordinator-free run.
struct ClusterSpec {
  core::cluster::ClusterConfig config;
  std::vector<MobileVmSpec> mobile;
  std::vector<AdmissionSpec> admissions;
  /// Coordinator blob to warm-start from (encode_coordinator). A
  /// coordinated warm start restores both sides or neither: this blob
  /// and a FleetSpec::restore entry for every host, from the same run.
  std::string restore;
};

/// One host's slot in a fleet scenario. The name must be unique across
/// the fleet; in fleets of more than one host it labels the host's
/// observability (metric prefix + event "host" field).
struct FleetHostSpec {
  std::string name;
  ExperimentSpec experiment;
};

struct FleetSpec {
  std::vector<FleetHostSpec> hosts;
  /// Hosts driven concurrently: run_fleet's worker team (util/thread_pool)
  /// runs min(workers, hosts) threads, each owning a fixed contiguous
  /// slice of the hosts for the whole run — the library's only
  /// parallelism axis. Results do not depend on it.
  std::size_t workers = 1;
  /// Shared passive observer for every host that does not carry its own
  /// (ExperimentSpec::observer takes precedence per host). With more
  /// than one host, metric keys gain a "host.<name>." prefix and events
  /// a "host" field; a fleet of one keeps the historical names.
  obs::Observer* observer = nullptr;
  /// Optional passive per-period recorder (DESIGN.md §14): receives
  /// every PeriodRecord the fleet emits, tagged with the host name.
  /// Borrowed; must be thread-safe when workers > 1.
  PeriodSink* recorder = nullptr;
  // --- Fault tolerance (DESIGN.md §17). -------------------------------
  /// Run every host under the crash supervisor even when its fault
  /// plan injects no crash-class faults. Hosts whose plan does carry
  /// crash faults are supervised regardless.
  bool supervise = false;
  /// Supervisor checkpoint cadence in periods (0 = off; crash recovery
  /// then cold-replays from period zero — byte-identical either way).
  std::size_t checkpoint_every = 0;
  /// When true each host's final checkpoint lands in
  /// FleetHostResult::final_checkpoint — what `stayaway_sim
  /// --checkpoint-dir` writes to disk.
  bool export_checkpoints = false;
  /// Per-host checkpoint blobs to warm-start from (keyed by host name;
  /// hosts without an entry start cold). The restored periods are
  /// replayed silently: the per-period result series (time/qos/...)
  /// cover only the live tail, while stayaway_records always span the
  /// full history.
  std::map<std::string, std::string> restore;
  // --- Cluster coordination (DESIGN.md §18). --------------------------
  std::optional<ClusterSpec> cluster;
};

struct FleetHostResult {
  std::string name;
  ExperimentResult result;
  /// What the supervisor trapped and repaired for this host; all zeros
  /// for an unsupervised or failure-free run.
  RecoveryReport recovery;
  /// Encoded end-of-run checkpoint (FleetSpec::export_checkpoints).
  std::string final_checkpoint;
};

/// What the cluster coordinator did over the run (FleetSpec::cluster).
struct ClusterReport {
  std::size_t migrations = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t queued = 0;  // still waiting when the run ended
  /// Canonical decision log in decision order (run-log `cluster-events`).
  std::vector<std::string> events;
  /// Encoded coordinator state (FleetSpec::export_checkpoints), restored
  /// through ClusterSpec::restore.
  std::string final_coordinator;
};

struct FleetResult {
  std::vector<FleetHostResult> hosts;
  /// Present exactly when the spec carried a ClusterSpec.
  std::optional<ClusterReport> cluster;
};

/// Homogeneous fleet helper: `host_count` copies of `base` named
/// "host0".."hostN-1", each with a decorrelated per-host seed split from
/// `base_seed` (fleet_host_seed).
FleetSpec replicate_fleet(const ExperimentSpec& base, std::size_t host_count,
                          std::uint64_t base_seed, std::size_t workers);

/// Runs every host of the fleet to completion; results are returned in
/// spec order regardless of worker scheduling.
FleetResult run_fleet(const FleetSpec& spec);

}  // namespace stayaway::harness
