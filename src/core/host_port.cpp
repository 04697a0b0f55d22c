#include "core/host_port.hpp"

#include <algorithm>
#include <limits>

namespace stayaway::core {

double SimHostActuationPort::now() const { return host_->now(); }

void SimHostActuationPort::batch_footprints(
    std::vector<VmFootprint>& out) const {
  out.clear();
  const auto& spec = host_->spec();
  for (sim::VmId id = 0; id < host_->vm_count(); ++id) {
    const auto& vm = host_->vm(id);
    if (vm.kind() != sim::VmKind::Batch || !vm.present(host_->now())) continue;
    const auto& g = vm.last_allocation().granted;
    double f = g.cpu_cores / spec.cpu_cores + g.memory_mb / spec.memory_mb +
               g.membw_mbps / spec.membw_mbps;
    out.push_back({id, f});
  }
}

std::vector<sim::VmId> SimHostActuationPort::present_batch() const {
  std::vector<sim::VmId> out;
  for (sim::VmId id : host_->vms_of_kind(sim::VmKind::Batch)) {
    if (host_->vm(id).present(host_->now())) out.push_back(id);
  }
  return out;
}

std::vector<sim::VmId> SimHostActuationPort::all_batch() const {
  return host_->vms_of_kind(sim::VmKind::Batch);
}

std::vector<sim::VmId> SimHostActuationPort::demotion_candidates() const {
  std::vector<sim::VmId> out;
  int top = std::numeric_limits<int>::min();
  for (sim::VmId id : host_->vms_of_kind(sim::VmKind::Sensitive)) {
    const auto& vm = host_->vm(id);
    if (vm.present(host_->now())) top = std::max(top, vm.priority());
  }
  for (sim::VmId id : host_->vms_of_kind(sim::VmKind::Sensitive)) {
    const auto& vm = host_->vm(id);
    if (vm.present(host_->now()) && vm.priority() < top) out.push_back(id);
  }
  return out;
}

ResourceUtilization SimHostActuationPort::utilization() const {
  ResourceUtilization u;
  const auto& spec = host_->spec();
  for (sim::VmId id = 0; id < host_->vm_count(); ++id) {
    const auto& g = host_->vm(id).last_allocation().granted;
    u.cpu += g.cpu_cores / spec.cpu_cores;
    u.memory += g.memory_mb / spec.memory_mb;
    u.membw += g.membw_mbps / spec.membw_mbps;
  }
  return u;
}

bool SimHostActuationPort::pause(sim::VmId id) {
  bool delivered = faults_ == nullptr || faults_->pause_delivered(host_->now());
  if (delivered) {
    host_->vm(id).pause();
    journal_.push_back({OpKind::Pause, id, host_->now()});
  }
  return delivered;
}

bool SimHostActuationPort::resume(sim::VmId id) {
  bool delivered =
      faults_ == nullptr || faults_->resume_delivered(host_->now());
  if (delivered) {
    host_->vm(id).resume();
    journal_.push_back({OpKind::Resume, id, host_->now()});
  }
  return delivered;
}

bool SimHostActuationPort::detach(sim::VmId id) {
  // Control-plane move: never fault-gated, never draws from the fault RNG
  // (the coordinator must stay invisible to the per-host fault streams).
  host_->vm(id).detach();
  journal_.push_back({OpKind::Detach, id, host_->now()});
  return true;
}

bool SimHostActuationPort::attach(sim::VmId id) {
  host_->vm(id).attach(host_->now());
  journal_.push_back({OpKind::Attach, id, host_->now()});
  return true;
}

void SimHostActuationPort::replay_delivered(double now) {
  while (replay_cursor_ < journal_.size() &&
         journal_[replay_cursor_].time <= now) {
    const DeliveredOp& op = journal_[replay_cursor_];
    switch (op.kind) {
      case OpKind::Pause:
        host_->vm(op.vm).pause();
        break;
      case OpKind::Resume:
        host_->vm(op.vm).resume();
        break;
      case OpKind::Detach:
        host_->vm(op.vm).detach();
        break;
      case OpKind::Attach:
        host_->vm(op.vm).attach(op.time);
        break;
    }
    ++replay_cursor_;
  }
}

void SimHostActuationPort::persist(util::StateIO& io) {
  std::vector<std::uint64_t> kinds;
  std::vector<sim::VmId> vms;
  std::vector<double> times;
  for (const DeliveredOp& op : journal_) {
    kinds.push_back(static_cast<std::uint64_t>(op.kind));
    vms.push_back(op.vm);
    times.push_back(op.time);
  }
  io.u64s("journal_kind", kinds);
  io.u64s("journal_vm", vms);
  io.reals("journal_time", times);
  if (!io.loading()) return;
  if (kinds.size() != vms.size() || vms.size() != times.size()) {
    throw util::StateCodecError("actuation journal arrays disagree in length");
  }
  journal_.clear();
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i] > static_cast<std::uint64_t>(OpKind::Attach)) {
      throw util::StateCodecError("actuation journal op kind out of range");
    }
    journal_.push_back({static_cast<OpKind>(kinds[i]), vms[i], times[i]});
  }
  replay_cursor_ = 0;
}

}  // namespace stayaway::core
