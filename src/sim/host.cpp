#include "sim/host.hpp"

#include <utility>

#include "util/check.hpp"

namespace stayaway::sim {

SimHost::SimHost(HostSpec spec, double tick_seconds)
    : spec_(spec), tick_seconds_(tick_seconds) {
  SA_REQUIRE(tick_seconds > 0.0, "tick must be positive");
}

VmId SimHost::add_vm(std::string name, VmKind kind,
                     std::unique_ptr<AppModel> app, SimTime start_time,
                     int priority) {
  VmId id = vms_.size();
  vms_.push_back(std::make_unique<SimVm>(id, std::move(name), kind,
                                         std::move(app), start_time, priority));
  return id;
}

SimVm& SimHost::vm(VmId id) {
  SA_REQUIRE(id < vms_.size(), "unknown VM id");
  return *vms_[id];
}

const SimVm& SimHost::vm(VmId id) const {
  SA_REQUIRE(id < vms_.size(), "unknown VM id");
  return *vms_[id];
}

void SimHost::step() {
  const std::size_t n = vms_.size();
  demands_.resize(n);
  active_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& v = *vms_[i];
    // Only a VM's own advance() can finish it and nothing in this tick
    // pauses one, so the flag holds for the advance loop below.
    active_[i] = v.active(now_);
    if (active_[i]) {
      demands_[i] = v.app().demand(now_);
    } else {
      demands_[i] = ResourceDemand{};  // absent/paused/finished: no demand
      if (v.present(now_) && v.paused()) v.add_paused_time(tick_seconds_);
    }
  }

  resolve_contention(spec_, demands_, allocations_);

  double cpu_used = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    auto& v = *vms_[i];
    v.set_last_allocation(allocations_[i]);
    if (active_[i]) {
      v.app().advance(now_, tick_seconds_, allocations_[i]);
    }
    double granted_cpu = allocations_[i].granted.cpu_cores;
    cpu_used += granted_cpu;
    v.add_cpu_work(granted_cpu * tick_seconds_);
  }
  last_utilization_ = cpu_used / spec_.cpu_cores;
  now_ += tick_seconds_;
}

void SimHost::run(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) step();
}

std::vector<VmId> SimHost::vms_of_kind(VmKind kind) const {
  std::vector<VmId> out;
  for (const auto& v : vms_) {
    if (v->kind() == kind) out.push_back(v->id());
  }
  return out;
}

}  // namespace stayaway::sim
