// ClusterCoordinator — the cluster-scale control loop (DESIGN.md §18).
// Runs between fleet periods — harness::run_fleet steps it on the last
// worker to reach the period barrier, with no host in flight — reads
// every host's pipeline state through read-only hooks over the fleet's
// host slots, and turns the per-host Stay-Away loops into a coordinated
// cluster:
//
//   - scores every (batch VM, host) placement with the deterministic
//     interference score (score.hpp);
//   - opens a host's migration gate when it is violating, a registered
//     mobile VM lives there, and a safer host exists — the host's
//     MigrationActuator then detaches the VM instead of pausing it;
//   - drains migration outboxes and re-attaches each detached VM on the
//     host whose trajectory sits deepest in safe territory;
//   - admission control: arriving batch VMs are attached to the best
//     host only while its score clears the fleet-wide QoS budget
//     (admit_margin); otherwise they queue, and are rejected for good
//     once the queue patience runs out.
//
// Mobile and admitted VMs are pre-provisioned as detached twins on every
// host (the sampler layout is fixed at pipeline construction, so VMs
// cannot be created mid-run; migration re-attaches a parked twin —
// cold-restart semantics). Every decision the coordinator takes against
// a host is also recorded as that host's per-period directives, so a
// crash-recovered host can replay them (replay_host_period) and
// reproduce its record stream byte for byte.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/cluster/migration.hpp"
#include "core/cluster/score.hpp"
#include "util/statecodec.hpp"

namespace stayaway::core::cluster {

struct ClusterConfig {
  /// Open migration gates at all (admission control always runs).
  bool migrate = true;
  /// A queued/incoming VM is admitted only while the best host's score
  /// is at or below -admit_margin — the fleet-wide QoS budget.
  double admit_margin = 0.25;
  /// Boundaries a queued admission waits before permanent rejection.
  std::size_t admit_patience = 8;
  /// Boundaries a migrated VM stays put before it may move again.
  std::size_t migration_cooldown = 5;
  /// Nominal demand footprint used to score candidate placements (the
  /// VM is detached while being placed, so it has no live allocation).
  double admit_footprint = 0.5;

  bool operator==(const ClusterConfig&) const = default;
};

class ClusterCoordinator {
 public:
  /// Accessor hooks for one host. Closures rather than raw pointers:
  /// the supervisor rebuilds crashed hosts, so the coordinator must
  /// re-resolve on every use. actuator() may return null (hosts without
  /// migration wiring still get scored and can receive admissions).
  struct HostHooks {
    std::string name;
    std::function<HostPipeline*()> pipeline;
    std::function<ActuationPort*()> port;
    std::function<MigrationActuator*()> actuator;
  };

  explicit ClusterCoordinator(ClusterConfig config);

  /// Registers a host; returns its index. Registration order must match
  /// the fleet's host order.
  std::size_t add_host(HostHooks hooks);

  /// Registers a mobile batch VM: `twins[h]` is its (parked or attached)
  /// VmId on host h — one twin per registered host — and `home` the host
  /// where it starts attached.
  void add_mobile_vm(std::string name, std::vector<sim::VmId> twins,
                     std::size_t home);

  /// Registers an incoming batch VM (parked everywhere) that asks to
  /// join the cluster at the first boundary >= `arrival_period`.
  void add_admission(std::string name, std::vector<sim::VmId> twins,
                     std::size_t arrival_period);

  /// The coordinator step after every host finished period `period`.
  /// Decisions take effect at the boundary (attaches now, gates for the
  /// next period) and are recorded as directives under period+1.
  void step(std::size_t period);

  /// Re-applies the directives recorded for `period` against host
  /// `host` — attaches through its port, incoming note and migration
  /// gate on its actuator. The supervisor calls this before replaying
  /// each gap period of a recovered host.
  void replay_host_period(std::size_t host, std::size_t period);

  std::size_t migrations() const { return migrations_; }
  std::size_t admissions_accepted() const { return admitted_; }
  std::size_t admissions_rejected() const { return rejected_; }
  /// Admissions still waiting in the queue.
  std::size_t admissions_queued() const;
  /// Canonical event log, one line per decision, in decision order —
  /// recorded into run-logs so cluster runs replay byte-identically.
  const std::vector<std::string>& events() const { return events_; }

  /// Snapshot of everything step() mutates: placements, cooldowns, the
  /// admission queue, per-host directives, counters and the event log.
  /// Host/VM registration is wiring, re-established by the caller before
  /// a load (mismatches throw).
  void persist(util::StateIO& io);

 private:
  /// Boundary decisions against one host for one period: applied live by
  /// step(), re-applied by replay_host_period().
  struct Directives {
    bool gate = false;
    std::size_t incoming = 0;
    std::vector<sim::VmId> attaches;
  };

  struct MobileVm {
    std::string name;
    std::vector<sim::VmId> twins;
    std::size_t host = 0;            // current placement
    std::size_t cooldown_until = 0;  // first boundary it may move again
  };

  enum class AdmissionState { Pending = 0, Admitted = 1, Rejected = 2 };

  struct Admission {
    std::string name;
    std::vector<sim::VmId> twins;
    std::size_t arrival = 0;
    AdmissionState state = AdmissionState::Pending;
    std::size_t host = 0;  // meaningful once admitted
  };

  /// Attaches `vm` on host `h` at the current boundary and records it
  /// under `next` (the upcoming period).
  void attach_on(std::size_t h, sim::VmId vm, std::size_t next);
  /// Index of the host with the lowest interference score for a VM of
  /// the nominal footprint, excluding `exclude` (size() = none).
  std::size_t best_host(const std::vector<HostSnapshot>& snaps,
                        std::size_t exclude) const;

  ClusterConfig config_;
  std::vector<HostHooks> hosts_;
  std::vector<MobileVm> mobile_;
  std::vector<Admission> admissions_;
  std::vector<std::map<std::size_t, Directives>> directives_;  // per host
  std::size_t migrations_ = 0;
  std::size_t admitted_ = 0;
  std::size_t rejected_ = 0;
  std::vector<std::string> events_;
};

/// Versioned, checksummed single-string encoding of the coordinator
/// state after `periods` fleet periods, framed by core/checkpoint.hpp's
/// envelope under the header `stayaway-coordinator v2`: a `periods = k`
/// line, then persist()'s fields.
std::string encode_coordinator(ClusterCoordinator& coordinator,
                               std::size_t periods);

/// Decodes `blob` into a freshly wired coordinator (same hosts, same
/// VMs) and returns the period count it was saved at. Throws
/// CheckpointVersionError on a v1 blob and util::StateCodecError on
/// damage or wiring mismatch.
std::size_t restore_coordinator(ClusterCoordinator& coordinator,
                                const std::string& blob);

}  // namespace stayaway::core::cluster
