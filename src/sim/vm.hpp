// A simulated VM/container hosting one application model.
#pragma once

#include <memory>
#include <string>

#include "sim/app_model.hpp"
#include "sim/resource.hpp"

namespace stayaway::sim {

enum class VmKind {
  Sensitive,  // latency-sensitive: QoS must be protected
  Batch,      // best-effort: may be throttled at will
};

using VmId = std::size_t;

class SimVm {
 public:
  /// The VM becomes schedulable at `start_time` (supports the paper's
  /// lifecycle where the batch VM arrives after the sensitive one).
  /// `priority` orders sensitive VMs (§2.1 of the paper: with multiple
  /// co-scheduled sensitive applications, the lower-priority one may be
  /// sacrificed); higher values are more important. Batch VMs ignore it.
  SimVm(VmId id, std::string name, VmKind kind, std::unique_ptr<AppModel> app,
        SimTime start_time, int priority = 0);

  VmId id() const { return id_; }
  const std::string& name() const { return name_; }
  VmKind kind() const { return kind_; }
  int priority() const { return priority_; }

  AppModel& app() { return *app_; }
  const AppModel& app() const { return *app_; }

  /// SIGSTOP analogue: a paused VM demands nothing and makes no progress.
  /// Its resident pages are eligible for eviction at no ongoing cost —
  /// a stopped process performs no memory accesses, so its working set
  /// stops exerting pressure within a tick.
  void pause() { paused_ = true; }
  /// SIGCONT analogue.
  void resume() { paused_ = false; }
  bool paused() const { return paused_; }

  /// Migration-out analogue: a detached VM has left the host entirely —
  /// it is never present, demands nothing, and keeps its work ledger.
  void detach() { detached_ = true; }
  /// Migration-in analogue (cold restart): the VM re-arrives at `now`
  /// unpaused; its app resumes from wherever its internal clock left off.
  void attach(SimTime now);

  /// Active means: arrived, not finished, not paused.
  bool active(SimTime now) const;

  /// Arrived and not finished (may still be paused).
  bool present(SimTime now) const;

  /// Usage actually granted in the most recent tick.
  const Allocation& last_allocation() const { return last_allocation_; }
  void set_last_allocation(const Allocation& a) { last_allocation_ = a; }

  /// Cumulative CPU work received (core-seconds) — the utilization ledger.
  double cpu_work_done() const { return cpu_work_done_; }
  void add_cpu_work(double core_seconds) { cpu_work_done_ += core_seconds; }

  /// Total simulated time spent paused.
  double paused_time() const { return paused_time_; }
  void add_paused_time(double dt) { paused_time_ += dt; }

 private:
  VmId id_;
  std::string name_;
  VmKind kind_;
  std::unique_ptr<AppModel> app_;
  SimTime start_time_;
  int priority_;
  bool paused_ = false;
  bool detached_ = false;
  Allocation last_allocation_;
  double cpu_work_done_ = 0.0;
  double paused_time_ = 0.0;
};

}  // namespace stayaway::sim
