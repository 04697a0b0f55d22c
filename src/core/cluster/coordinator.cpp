#include "core/cluster/coordinator.hpp"

#include <algorithm>
#include <utility>

#include "core/checkpoint.hpp"
#include "util/check.hpp"

namespace stayaway::core::cluster {

namespace {

// Framed by the host checkpoint's envelope: `stayaway-coordinator v2`.
// v2 opens the body with the period count the blob was saved at.
constexpr std::string_view kMagic = "stayaway-coordinator";
constexpr std::uint64_t kVersion = 2;

}  // namespace

ClusterCoordinator::ClusterCoordinator(ClusterConfig config)
    : config_(config) {}

std::size_t ClusterCoordinator::add_host(HostHooks hooks) {
  SA_REQUIRE(hooks.pipeline != nullptr && hooks.port != nullptr &&
                 hooks.actuator != nullptr,
             "cluster host hooks must all be callable");
  hosts_.push_back(std::move(hooks));
  directives_.emplace_back();
  return hosts_.size() - 1;
}

void ClusterCoordinator::add_mobile_vm(std::string name,
                                       std::vector<sim::VmId> twins,
                                       std::size_t home) {
  SA_REQUIRE(twins.size() == hosts_.size(),
             "mobile VM needs one twin per registered host");
  SA_REQUIRE(home < hosts_.size(), "mobile VM home host out of range");
  mobile_.push_back({std::move(name), std::move(twins), home, 0});
}

void ClusterCoordinator::add_admission(std::string name,
                                       std::vector<sim::VmId> twins,
                                       std::size_t arrival_period) {
  SA_REQUIRE(twins.size() == hosts_.size(),
             "admission VM needs one twin per registered host");
  admissions_.push_back({std::move(name), std::move(twins), arrival_period,
                         AdmissionState::Pending, 0});
}

std::size_t ClusterCoordinator::admissions_queued() const {
  std::size_t n = 0;
  for (const Admission& a : admissions_) {
    if (a.state == AdmissionState::Pending) ++n;
  }
  return n;
}

void ClusterCoordinator::attach_on(std::size_t h, sim::VmId vm,
                                   std::size_t next) {
  hosts_[h].port()->attach(vm);
  if (MigrationActuator* act = hosts_[h].actuator()) act->note_incoming(1);
  Directives& d = directives_[h][next];
  d.attaches.push_back(vm);
  d.incoming += 1;
}

std::size_t ClusterCoordinator::best_host(
    const std::vector<HostSnapshot>& snaps, std::size_t exclude) const {
  std::size_t best = hosts_.size();
  double best_score = 0.0;
  for (std::size_t h = 0; h < snaps.size(); ++h) {
    if (h == exclude) continue;
    double score = interference_score(snaps[h], config_.admit_footprint);
    if (best == hosts_.size() || score < best_score) {
      best = h;
      best_score = score;
    }
  }
  return best;
}

void ClusterCoordinator::step(std::size_t period) {
  const std::size_t next = period + 1;
  std::vector<HostSnapshot> snaps;
  snaps.reserve(hosts_.size());
  for (const HostHooks& host : hosts_) {
    snaps.push_back(snapshot_host(*host.pipeline()));
  }

  // 1. Drain migration outboxes: re-attach each freshly detached VM on
  // the safest other host. Entries whose VM already moved on (a
  // recovered member re-detaching during gap replay) are stale and
  // dropped — the placement ledger is the truth.
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    MigrationActuator* act = hosts_[h].actuator();
    if (act == nullptr) continue;
    for (sim::VmId id : act->take_migrated()) {
      MobileVm* vm = nullptr;
      for (MobileVm& m : mobile_) {
        if (m.host == h && m.twins[h] == id) {
          vm = &m;
          break;
        }
      }
      if (vm == nullptr) continue;  // stale (already re-placed)
      std::size_t dest = best_host(snaps, h);
      if (dest == hosts_.size()) continue;  // single-host cluster
      attach_on(dest, vm->twins[dest], next);
      vm->host = dest;
      vm->cooldown_until = next + config_.migration_cooldown;
      ++migrations_;
      events_.push_back("period=" + std::to_string(next) + " migrate vm=" +
                        vm->name + " from=" + hosts_[h].name + " to=" +
                        hosts_[dest].name);
    }
  }

  // 2. Admission control against the fleet-wide QoS budget.
  for (Admission& a : admissions_) {
    if (a.state != AdmissionState::Pending || a.arrival > next) continue;
    std::size_t dest = best_host(snaps, hosts_.size());
    double score = dest == hosts_.size()
                       ? 0.0
                       : interference_score(snaps[dest],
                                            config_.admit_footprint);
    if (dest != hosts_.size() && score <= -config_.admit_margin) {
      attach_on(dest, a.twins[dest], next);
      a.state = AdmissionState::Admitted;
      a.host = dest;
      ++admitted_;
      events_.push_back("period=" + std::to_string(next) + " admit vm=" +
                        a.name + " to=" + hosts_[dest].name);
    } else if (next >= a.arrival + config_.admit_patience) {
      a.state = AdmissionState::Rejected;
      ++rejected_;
      events_.push_back("period=" + std::to_string(next) + " reject vm=" +
                        a.name + " waited=" +
                        std::to_string(next - a.arrival));
    }
  }

  // 3. Migration gates: a host carrying a movable mobile VM gets one
  // period of standing permission to migrate out, provided somewhere
  // safe exists to move to. The gate is armed ahead of trouble — the
  // actuator only consumes it when the period actually observes or
  // predicts a violation (migration.cpp), so the first period the
  // governor would pause detaches the VM instead. Gating only on
  // already-violating hosts would always arrive one period after the
  // pause already landed.
  if (!config_.migrate) return;
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    MigrationActuator* act = hosts_[h].actuator();
    if (act == nullptr) continue;
    bool movable = false;
    for (const MobileVm& vm : mobile_) {
      if (vm.host == h && vm.cooldown_until <= next) {
        movable = true;
        break;
      }
    }
    if (!movable) continue;
    std::size_t dest = best_host(snaps, h);
    if (dest == hosts_.size() ||
        interference_score(snaps[dest], config_.admit_footprint) >= 0.0) {
      continue;  // nowhere safe to move to — let the host pause as usual
    }
    act->set_gate(true);
    directives_[h][next].gate = true;
  }
}

void ClusterCoordinator::replay_host_period(std::size_t host,
                                            std::size_t period) {
  SA_REQUIRE(host < hosts_.size(), "replay of an unregistered host");
  auto it = directives_[host].find(period);
  if (it == directives_[host].end()) return;
  const Directives& d = it->second;
  for (sim::VmId id : d.attaches) {
    hosts_[host].port()->attach(id);
  }
  MigrationActuator* act = hosts_[host].actuator();
  if (act != nullptr) {
    if (d.incoming > 0) act->note_incoming(d.incoming);
    act->set_gate(d.gate);
  }
}

void ClusterCoordinator::persist(util::StateIO& io) {
  io.boolean("cluster_migrate", config_.migrate);
  io.real("cluster_admit_margin", config_.admit_margin);
  io.u64("cluster_admit_patience", config_.admit_patience);
  io.u64("cluster_migration_cooldown", config_.migration_cooldown);
  io.real("cluster_admit_footprint", config_.admit_footprint);
  io.expect("cluster_hosts", hosts_.size(), "coordinator host count mismatch");
  io.expect("cluster_mobile", mobile_.size(),
            "coordinator mobile VM count mismatch");
  for (MobileVm& vm : mobile_) {
    io.expect("mobile_name", vm.name, "coordinator mobile VM name mismatch");
    io.u64s("mobile_twins", vm.twins);
    io.u64("mobile_host", vm.host);
    if (io.loading() && vm.host >= hosts_.size()) {
      throw util::StateCodecError("coordinator mobile placement out of range");
    }
    io.u64("mobile_cooldown_until", vm.cooldown_until);
  }
  io.expect("cluster_admissions", admissions_.size(),
            "coordinator admission count mismatch");
  for (Admission& a : admissions_) {
    io.expect("admission_name", a.name, "coordinator admission name mismatch");
    io.u64s("admission_twins", a.twins);
    io.u64("admission_arrival", a.arrival);
    io.enumeration("admission_state", a.state, AdmissionState::Rejected);
    io.u64("admission_host", a.host);
  }
  for (auto& per_host : directives_) {
    std::vector<std::pair<std::size_t, Directives>> periods(per_host.begin(),
                                                            per_host.end());
    io.list("directive_periods", periods, [&io](auto& entry) {
      io.u64("directive_period", entry.first);
      io.boolean("directive_gate", entry.second.gate);
      io.u64("directive_incoming", entry.second.incoming);
      io.u64s("directive_attaches", entry.second.attaches);
    });
    if (io.loading()) {
      per_host = std::map<std::size_t, Directives>(periods.begin(),
                                                   periods.end());
    }
  }
  io.u64("cluster_migrations", migrations_);
  io.u64("cluster_admitted", admitted_);
  io.u64("cluster_rejected", rejected_);
  io.list("cluster_events", events_,
          [&io](std::string& event) { io.line("event", event); });
}

std::string encode_coordinator(ClusterCoordinator& coordinator,
                               std::size_t periods) {
  std::string out;
  const std::size_t body = begin_envelope(out, kMagic, kVersion);
  util::StateIO io = util::StateIO::writer(out);
  io.u64("periods", periods);
  coordinator.persist(io);
  seal_envelope(out, body);
  return out;
}

std::size_t restore_coordinator(ClusterCoordinator& coordinator,
                                const std::string& blob) {
  util::StateIO io =
      util::StateIO::reader(open_envelope(blob, kMagic, kVersion));
  std::size_t periods = 0;
  io.u64("periods", periods);
  coordinator.persist(io);
  io.finish();
  return periods;
}

}  // namespace stayaway::core::cluster
