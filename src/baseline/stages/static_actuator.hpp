// StaticThresholdActuator — the static-threshold baseline as a pipeline
// stage (core::Actuator): pause the batch whenever host utilization of
// any resource crosses a fixed cap, resume below a hysteresis margin.
// Stands in for the profile-once approaches the paper argues against
// (§1, §8). All host effects (including the utilization read) go through
// the injected ActuationPort.
#pragma once

#include <cstddef>

#include "core/stages/stage.hpp"

namespace stayaway::baseline {

struct StaticThresholdConfig {
  double cpu_cap = 0.85;     // of host cores
  double memory_cap = 0.90;  // of physical memory
  double membw_cap = 0.85;   // of bus bandwidth
  double hysteresis = 0.10;  // resume once below cap - hysteresis
};

class StaticThresholdActuator final : public core::Actuator {
 public:
  explicit StaticThresholdActuator(StaticThresholdConfig config = {});

  /// Ignores the record's prediction slice entirely: the decision is a
  /// pure function of port.utilization() and the pause latch. Fills
  /// rec.action/batch_paused_after.
  void act(core::ActuationPort& port, core::PeriodRecord& rec,
           core::DegradationState degradation, obs::Observer* observer,
           Outcome& out) override;

  // sa-lint: test-observer(tests check whether the batch is paused)

  bool batch_paused() const { return paused_; }
  std::size_t pauses() const { return pauses_; }

  /// Snapshot of the pause latch and the pause count.
  void persist(util::StateIO& io) override;

 private:
  StaticThresholdConfig config_;
  bool paused_ = false;
  std::size_t pauses_ = 0;
};

}  // namespace stayaway::baseline
