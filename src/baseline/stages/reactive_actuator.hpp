// ReactiveActuator — the reactive-throttling baseline as a pipeline
// stage (core::Actuator): pause every batch VM the period a violation is
// observed, resume after a blind cooldown. No model, no prediction — the
// non-predictive comparator for Stay-Away running in the same pipeline
// shape (DESIGN.md §13). All host effects go through the injected
// ActuationPort.
#pragma once

#include <cstddef>

#include "core/stages/stage.hpp"

namespace stayaway::baseline {

struct ReactiveConfig {
  /// Seconds the batch stays paused after a violation-triggered pause.
  double cooldown_s = 10.0;
};

class ReactiveActuator final : public core::Actuator {
 public:
  explicit ReactiveActuator(ReactiveConfig config = {});

  /// Reads rec.violation_observed (the pipeline fills it from the probe,
  /// gated on QoS visibility) and fills rec.action/batch_paused_after.
  void act(core::ActuationPort& port, core::PeriodRecord& rec,
           core::DegradationState degradation, obs::Observer* observer,
           Outcome& out) override;

  // sa-lint: test-observer(tests check whether the batch is paused)

  bool batch_paused() const { return paused_; }
  std::size_t pauses() const { return pauses_; }

  /// Snapshot of the pause latch, its start time and the pause count.
  void persist(util::StateIO& io) override;

 private:
  ReactiveConfig config_;
  bool paused_ = false;
  double paused_at_ = 0.0;
  std::size_t pauses_ = 0;
};

}  // namespace stayaway::baseline
