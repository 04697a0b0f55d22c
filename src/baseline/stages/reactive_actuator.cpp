#include "baseline/stages/reactive_actuator.hpp"

#include "util/check.hpp"

namespace stayaway::baseline {

ReactiveActuator::ReactiveActuator(ReactiveConfig config) : config_(config) {
  SA_REQUIRE(config.cooldown_s > 0.0, "cooldown must be positive");
}

void ReactiveActuator::act(core::ActuationPort& port, core::PeriodRecord& rec,
                           core::DegradationState, obs::Observer* observer,
                           Outcome& outcome) {
  obs::Span act_span = observer != nullptr ? observer->span("act", rec.time)
                                           : obs::Span{};
  if (!paused_) {
    if (rec.violation_observed) {
      for (sim::VmId id : port.all_batch()) {
        port.pause(id);
        outcome.paused.push_back(id);
      }
      paused_ = true;
      paused_at_ = port.now();
      ++pauses_;
      rec.action = core::ThrottleAction::Pause;
      outcome.reason = "observed-violation";
    }
  } else if (port.now() - paused_at_ >= config_.cooldown_s) {
    for (sim::VmId id : port.all_batch()) {
      port.resume(id);
      outcome.resumed.push_back(id);
    }
    paused_ = false;
    rec.action = core::ThrottleAction::Resume;
    outcome.reason = "cooldown-elapsed";
  }
  rec.batch_paused_after = paused_;
  act_span.close();
}

void ReactiveActuator::persist(util::StateIO& io) {
  io.boolean("reactive_paused", paused_);
  io.real("reactive_paused_at", paused_at_);
  io.u64("reactive_pauses", pauses_);
}

}  // namespace stayaway::baseline
