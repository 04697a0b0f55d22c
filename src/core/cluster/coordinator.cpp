#include "core/cluster/coordinator.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/checkpoint.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace stayaway::core::cluster {

namespace {

constexpr std::string_view kHeaderLine = "stayaway-coordinator v1";
constexpr std::string_view kChecksumKey = "checksum = ";

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

std::size_t ClusterCoordinator::placement(const std::string& name) const {
  for (const MobileVm& vm : mobile_) {
    if (vm.name == name) return vm.host;
  }
  SA_CHECK(false, "placement() of an unregistered mobile VM");
  return 0;
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
    snaps.push_back(snapshot_host(host.name, *host.pipeline()));
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

void ClusterCoordinator::save_state(util::StateWriter& w) const {
  w.boolean("cluster_migrate", config_.migrate);
  w.real("cluster_admit_margin", config_.admit_margin);
  w.u64("cluster_admit_patience", config_.admit_patience);
  w.u64("cluster_migration_cooldown", config_.migration_cooldown);
  w.real("cluster_admit_footprint", config_.admit_footprint);
  w.u64("cluster_hosts", hosts_.size());
  w.u64("cluster_mobile", mobile_.size());
  for (const MobileVm& vm : mobile_) {
    w.line("mobile_name", vm.name);
    std::vector<std::uint64_t> twins(vm.twins.begin(), vm.twins.end());
    w.u64s("mobile_twins", twins);
    w.u64("mobile_host", vm.host);
    w.u64("mobile_cooldown_until", vm.cooldown_until);
  }
  w.u64("cluster_admissions", admissions_.size());
  for (const Admission& a : admissions_) {
    w.line("admission_name", a.name);
    std::vector<std::uint64_t> twins(a.twins.begin(), a.twins.end());
    w.u64s("admission_twins", twins);
    w.u64("admission_arrival", a.arrival);
    w.u64("admission_state", static_cast<std::uint64_t>(a.state));
    w.u64("admission_host", a.host);
  }
  for (const auto& per_host : directives_) {
    w.u64("directive_periods", per_host.size());
    for (const auto& [period, d] : per_host) {
      w.u64("directive_period", period);
      w.boolean("directive_gate", d.gate);
      w.u64("directive_incoming", d.incoming);
      std::vector<std::uint64_t> attaches(d.attaches.begin(),
                                          d.attaches.end());
      w.u64s("directive_attaches", attaches);
    }
  }
  w.u64("cluster_migrations", migrations_);
  w.u64("cluster_admitted", admitted_);
  w.u64("cluster_rejected", rejected_);
  w.u64("cluster_events", events_.size());
  for (const std::string& event : events_) {
    w.line("event", event);
  }
}

void ClusterCoordinator::load_state(util::StateReader& r) {
  config_.migrate = r.boolean("cluster_migrate");
  config_.admit_margin = r.real("cluster_admit_margin");
  config_.admit_patience =
      static_cast<std::size_t>(r.u64("cluster_admit_patience"));
  config_.migration_cooldown =
      static_cast<std::size_t>(r.u64("cluster_migration_cooldown"));
  config_.admit_footprint = r.real("cluster_admit_footprint");
  if (r.u64("cluster_hosts") != hosts_.size()) {
    throw util::StateCodecError("coordinator host count mismatch");
  }
  if (r.u64("cluster_mobile") != mobile_.size()) {
    throw util::StateCodecError("coordinator mobile VM count mismatch");
  }
  for (MobileVm& vm : mobile_) {
    if (r.line("mobile_name") != vm.name) {
      throw util::StateCodecError("coordinator mobile VM name mismatch");
    }
    std::vector<std::uint64_t> twins = r.u64s("mobile_twins");
    vm.twins.assign(twins.begin(), twins.end());
    vm.host = static_cast<std::size_t>(r.u64("mobile_host"));
    if (vm.host >= hosts_.size()) {
      throw util::StateCodecError("coordinator mobile placement out of range");
    }
    vm.cooldown_until =
        static_cast<std::size_t>(r.u64("mobile_cooldown_until"));
  }
  if (r.u64("cluster_admissions") != admissions_.size()) {
    throw util::StateCodecError("coordinator admission count mismatch");
  }
  for (Admission& a : admissions_) {
    if (r.line("admission_name") != a.name) {
      throw util::StateCodecError("coordinator admission name mismatch");
    }
    std::vector<std::uint64_t> twins = r.u64s("admission_twins");
    a.twins.assign(twins.begin(), twins.end());
    a.arrival = static_cast<std::size_t>(r.u64("admission_arrival"));
    std::uint64_t state = r.u64("admission_state");
    if (state > static_cast<std::uint64_t>(AdmissionState::Rejected)) {
      throw util::StateCodecError("coordinator admission state out of range");
    }
    a.state = static_cast<AdmissionState>(state);
    a.host = static_cast<std::size_t>(r.u64("admission_host"));
  }
  for (auto& per_host : directives_) {
    per_host.clear();
    std::size_t count = static_cast<std::size_t>(r.u64("directive_periods"));
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t period = static_cast<std::size_t>(r.u64("directive_period"));
      Directives d;
      d.gate = r.boolean("directive_gate");
      d.incoming = static_cast<std::size_t>(r.u64("directive_incoming"));
      for (std::uint64_t id : r.u64s("directive_attaches")) {
        d.attaches.push_back(static_cast<sim::VmId>(id));
      }
      per_host.emplace(period, std::move(d));
    }
  }
  migrations_ = static_cast<std::size_t>(r.u64("cluster_migrations"));
  admitted_ = static_cast<std::size_t>(r.u64("cluster_admitted"));
  rejected_ = static_cast<std::size_t>(r.u64("cluster_rejected"));
  events_.clear();
  std::size_t events = static_cast<std::size_t>(r.u64("cluster_events"));
  events_.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    events_.push_back(r.line("event"));
  }
}

std::string encode_coordinator(const ClusterCoordinator& coordinator) {
  std::string out(kHeaderLine);
  out += '\n';
  const std::size_t body_start = out.size();
  util::StateWriter w(out);
  coordinator.save_state(w);
  const std::uint64_t checksum =
      fnv1a64(std::string_view(out).substr(body_start));
  out += kChecksumKey;
  out += std::to_string(checksum);
  out += '\n';
  return out;
}

void restore_coordinator(ClusterCoordinator& coordinator,
                         const std::string& blob) {
  std::size_t header_end = blob.find('\n');
  if (header_end == std::string::npos ||
      std::string_view(blob).substr(0, header_end) != kHeaderLine) {
    throw util::StateCodecError("not a stayaway coordinator checkpoint");
  }
  if (blob.back() != '\n') {
    throw util::StateCodecError(
        "truncated coordinator checkpoint: missing trailing newline");
  }
  std::size_t trailer_start = blob.rfind('\n', blob.size() - 2);
  if (trailer_start == std::string::npos || trailer_start < header_end) {
    throw util::StateCodecError("truncated coordinator checkpoint: no body");
  }
  ++trailer_start;
  std::string_view trailer = std::string_view(blob).substr(
      trailer_start, blob.size() - trailer_start - 1);
  if (trailer.substr(0, kChecksumKey.size()) != kChecksumKey) {
    throw util::StateCodecError(
        "truncated coordinator checkpoint: no checksum trailer");
  }
  std::uint64_t expected = 0;
  if (!stayaway::parse_u64(std::string(trailer.substr(kChecksumKey.size())),
                           expected)) {
    throw util::StateCodecError("malformed coordinator checksum");
  }
  std::string_view body = std::string_view(blob).substr(
      header_end + 1, trailer_start - header_end - 1);
  if (fnv1a64(body) != expected) {
    throw CheckpointChecksumError("coordinator checkpoint checksum mismatch");
  }
  std::istringstream in{std::string(body)};
  util::StateReader r(in);
  coordinator.load_state(r);
  if (in.peek() != std::istringstream::traits_type::eof()) {
    throw util::StateCodecError("trailing data after coordinator body");
  }
}

}  // namespace stayaway::core::cluster
