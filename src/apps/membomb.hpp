// MemoryBomb — the paper's custom synthetic stressor: "generates stress on
// the memory subsystem by allocating large chunks of memory and
// occasionally reading the allocated content" (§7.1).
//
// Modelled as an allocation ramp followed by alternating idle-ish hold and
// read-sweep phases; reads demand memory bandwidth, holds mostly capacity.
#pragma once

#include "apps/phase.hpp"
#include "sim/app_model.hpp"

namespace stayaway::apps {

struct MemBombSpec {
  double target_mb = 3000.0;      // final allocation size
  double ramp_s = 20.0;           // seconds to reach the target at full speed
  double hold_s = 12.0;           // seconds between read sweeps
  double sweep_s = 6.0;           // duration of one read sweep
  double sweep_membw_mbps = 9000.0;
  double cpu_cores = 0.5;         // pointer-chasing costs some CPU
  double total_work_s = -1.0;     // <= 0: runs forever
};

class MemBomb final : public sim::AppModel {
 public:
  explicit MemBomb(MemBombSpec spec = {});

  std::string_view name() const override { return "membomb"; }
  bool finished() const override;
  sim::ResourceDemand demand(sim::SimTime now) override;
  void advance(sim::SimTime now, double dt, const sim::Allocation& alloc) override;

  // sa-lint: test-observer(tests check the allocation growth rate)
  double allocated_mb() const { return allocated_mb_; }

 private:
  MemBombSpec spec_;
  PhaseMachine cycle_;
  double allocated_mb_ = 64.0;
  double work_done_ = 0.0;
};

}  // namespace stayaway::apps
