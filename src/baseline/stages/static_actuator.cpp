#include "baseline/stages/static_actuator.hpp"

#include "util/check.hpp"

namespace stayaway::baseline {

StaticThresholdActuator::StaticThresholdActuator(StaticThresholdConfig config)
    : config_(config) {
  SA_REQUIRE(config.hysteresis >= 0.0, "hysteresis must be non-negative");
}

void StaticThresholdActuator::act(core::ActuationPort& port,
                                  core::PeriodRecord& rec,
                                  core::DegradationState,
                                  obs::Observer* observer, Outcome& outcome) {
  obs::Span act_span = observer != nullptr ? observer->span("act", rec.time)
                                           : obs::Span{};
  core::ResourceUtilization u = port.utilization();
  if (!paused_) {
    bool over = u.cpu > config_.cpu_cap || u.memory > config_.memory_cap ||
                u.membw > config_.membw_cap;
    if (over) {
      for (sim::VmId id : port.all_batch()) {
        port.pause(id);
        outcome.paused.push_back(id);
      }
      paused_ = true;
      ++pauses_;
      rec.action = core::ThrottleAction::Pause;
      outcome.reason = "threshold-exceeded";
    }
  } else {
    bool clear = u.cpu < config_.cpu_cap - config_.hysteresis &&
                 u.memory < config_.memory_cap - config_.hysteresis &&
                 u.membw < config_.membw_cap - config_.hysteresis;
    if (clear) {
      for (sim::VmId id : port.all_batch()) {
        port.resume(id);
        outcome.resumed.push_back(id);
      }
      paused_ = false;
      rec.action = core::ThrottleAction::Resume;
      outcome.reason = "below-hysteresis";
    }
  }
  rec.batch_paused_after = paused_;
  act_span.close();
}

void StaticThresholdActuator::persist(util::StateIO& io) {
  io.boolean("static_paused", paused_);
  io.u64("static_pauses", pauses_);
}

}  // namespace stayaway::baseline
