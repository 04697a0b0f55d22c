// CPUBomb from the isolation benchmark suite (Matthews et al.): saturates
// every core it can get, forever (or for a configured amount of work).
// The paper's worst-case batch co-location — no phase changes, constant
// contention, so Stay-Away can only ever reclaim ~5% utilization (Fig. 10).
#pragma once

#include "sim/app_model.hpp"

namespace stayaway::apps {

class CpuBomb final : public sim::AppModel {
 public:
  /// cores: how many cores it spins on. total_work_s: core-seconds of work
  /// before finishing; <= 0 means it never finishes.
  explicit CpuBomb(double cores = 4.0, double total_work_s = -1.0);

  std::string_view name() const override { return "cpubomb"; }
  bool finished() const override;
  sim::ResourceDemand demand(sim::SimTime now) override;
  void advance(sim::SimTime now, double dt, const sim::Allocation& alloc) override;

  // sa-lint: test-observer(tests check the progress the host granted)
  double work_done() const { return work_done_; }

 private:
  double cores_;
  double total_work_s_;
  double work_done_ = 0.0;
};

}  // namespace stayaway::apps
