// SimHostActuationPort — the production ActuationPort: a thin view over
// the simulated host with pause/resume delivery routed through the
// optional fault channel (DESIGN.md §12). This is the only place where
// actuation crosses from the stage world into the host; stage
// implementations themselves must not see the host (stage-host-isolation
// lint rule), which is why this lives in src/core/, not src/core/stages/.
//
// Owned by HostPipeline, which installs the fault injector; a bare
// fault-free port drives a stage directly (tests/test_baseline.cpp).
#pragma once

#include <vector>

#include "core/stages/port.hpp"
#include "sim/faults.hpp"
#include "sim/host.hpp"
#include "util/statecodec.hpp"

namespace stayaway::core {

class SimHostActuationPort final : public ActuationPort {
 public:
  /// What a journal entry did to the host. Values are the checkpoint
  /// wire encoding (v2) — append only.
  enum class OpKind { Resume = 0, Pause = 1, Detach = 2, Attach = 3 };

  /// One delivered actuation, stamped with the simulated time it took
  /// effect on the host. The journal is what makes a warm restart exact
  /// (DESIGN.md §17): a rebuilt host is fast-forwarded tick-for-tick with
  /// the journalled actuations re-applied at their original times, so the
  /// restored host's VM pause/attach states — and therefore every
  /// subsequent tick's arithmetic — match the crashed run bit for bit.
  struct DeliveredOp {
    OpKind kind = OpKind::Resume;
    sim::VmId vm = 0;
    double time = 0.0;
  };

  /// `host` must outlive the port.
  explicit SimHostActuationPort(sim::SimHost& host) : host_(&host) {}

  /// Routes subsequent pause/resume delivery through `faults` (nullptr
  /// restores always-delivered semantics). The injector is borrowed.
  void set_faults(sim::FaultInjector* faults) { faults_ = faults; }

  double now() const override;
  void batch_footprints(std::vector<VmFootprint>& out) const override;
  std::vector<sim::VmId> present_batch() const override;
  std::vector<sim::VmId> all_batch() const override;
  std::vector<sim::VmId> demotion_candidates() const override;
  ResourceUtilization utilization() const override;
  bool pause(sim::VmId id) override;
  bool resume(sim::VmId id) override;
  bool detach(sim::VmId id) override;
  bool attach(sim::VmId id) override;

  /// Re-applies restored journal entries with time <= `now` directly to
  /// the host — no fault draws, no re-journalling — in original delivery
  /// order. An internal cursor makes repeated calls apply each entry
  /// exactly once; the supervisor calls this at every period boundary of
  /// the fast-forward.
  void replay_delivered(double now);
  /// The journal as three parallel vectors; a load rewinds the replay
  /// cursor to the first entry.
  void persist(util::StateIO& io);

 private:
  sim::SimHost* host_;
  sim::FaultInjector* faults_ = nullptr;
  std::vector<DeliveredOp> journal_;
  std::size_t replay_cursor_ = 0;  // next journal entry replay applies
};

}  // namespace stayaway::core
