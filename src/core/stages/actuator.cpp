#include "core/stages/actuator.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stayaway::core {

namespace {

/// Control periods before the first retry of a dropped pause/resume
/// command (DESIGN.md §12); the wait doubles every round.
constexpr double kActuationBackoffPeriods = 1.0;

/// Wait before delivery round `attempts + 1` of a dropped command.
double retry_backoff(double period_s, std::size_t attempts) {
  return kActuationBackoffPeriods * period_s *
         static_cast<double>(1ULL << (attempts - 1));
}

}  // namespace

GovernorActuator::GovernorActuator(const StayAwayConfig& config)
    : actions_enabled_(config.actions_enabled),
      allow_sensitive_demotion_(config.allow_sensitive_demotion),
      period_s_(config.period_s),
      degradation_(config.degradation),
      governor_(config.governor, Rng(config.seed)) {}

void GovernorActuator::act(ActuationPort& port, PeriodRecord& rec,
                           DegradationState degradation,
                           obs::Observer* observer, Outcome& outcome) {
  // In passive mode the governor is not consulted at all: a decision that
  // is never applied must not advance its state (pause ledger, beta
  // chain).
  obs::Span act_span = observer != nullptr ? observer->span("act", rec.time)
                                           : obs::Span{};
  ThrottleAction action = ThrottleAction::None;
  bool failsafe_all = false;
  if (actions_enabled_) {
    // Reconcile first: commands the fault channel dropped last period are
    // re-issued before any new decision can supersede them.
    if (degradation_.enabled) {
      rec.actuation_retries = reconcile_actuation(port, rec.time);
    }
    if (degradation_.enabled && degradation == DegradationState::Failsafe &&
        !failsafe_pause_) {
      // QoS-blind past the patience: the loop cannot label states, so it
      // cannot reason about interference — stop every batch VM until the
      // probe comes back (DESIGN.md §12). Failsafe supersedes whatever
      // pause the governor may have had open; close its ledger so the
      // stale starvation clock and distance chain do not leak into the
      // first governor pause after the failsafe releases.
      action = ThrottleAction::Pause;
      failsafe_all = true;
      governor_.abandon_pause();
    } else if (failsafe_pause_ && degradation == DegradationState::Normal) {
      // Telemetry fully recovered (with hysteresis): release the failsafe.
      action = ThrottleAction::Resume;
    } else if (!failsafe_pause_) {
      action = governor_.decide(rec.time, batch_paused_,
                                rec.violation_predicted,
                                rec.violation_observed, rec.state);
    }
    // else: hold the failsafe pause while telemetry is still degraded.
  }
  // The set a Resume releases is cleared by apply_action — keep it for
  // the event stream.
  if (action == ThrottleAction::Resume) {
    outcome.resumed = throttled_;
    std::optional<ResumeReason> reason = governor_.last_resume_reason();
    outcome.reason = reason.has_value() ? to_string(*reason) : "external";
  }
  apply_action(port, action, failsafe_all);
  if (action == ThrottleAction::Pause) {
    outcome.paused = throttled_;
    outcome.reason = rec.violation_observed ? "observed-violation"
                                            : "predicted-violation";
  }
  act_span.close();
  rec.action = action;
  rec.batch_paused_after = batch_paused_;
  rec.actuation_pending = pending_.has_value();
  rec.beta = governor_.beta();
}

std::size_t GovernorActuator::reconcile_actuation(ActuationPort& port,
                                                  double now) {
  if (!pending_.has_value() || now < pending_->next_retry_time) return 0;
  std::vector<sim::VmId> undelivered;
  std::size_t reissued = 0;
  for (sim::VmId id : pending_->targets) {
    ++reissued;
    if (!deliver(port, pending_->op, id)) undelivered.push_back(id);
  }
  actuation_retries_total_ += reissued;
  if (undelivered.empty()) {
    pending_.reset();
    return reissued;
  }
  pending_->targets = std::move(undelivered);
  ++pending_->attempts;
  if (pending_->attempts > degradation_.actuation_max_retries) {
    // Retry budget exhausted: record the divergence, roll the books back
    // to what was actually delivered and stop hammering a dead channel.
    // The next Pause/Resume decision rebuilds the ledger.
    actuation_abandoned_total_ += pending_->targets.size();
    abandon_pending();
  } else {
    pending_->next_retry_time =
        now + retry_backoff(period_s_, pending_->attempts);
  }
  return reissued;
}

void GovernorActuator::abandon_pending() {
  SA_DCHECK(pending_.has_value(), "nothing pending to abandon");
  if (pending_->op == ThrottleAction::Pause) {
    // The abandoned targets were never paused: drop them from the
    // intent set so a later Resume does not "release" running VMs. If
    // nothing at all got paused, the pause never happened — without the
    // rollback the governor keeps reasoning in its paused branch over
    // map states of a *running* system, the distance chain immediately
    // exceeds beta and the loop enters a pause/resume oscillation.
    for (sim::VmId id : pending_->targets) {
      throttled_.erase(std::remove(throttled_.begin(), throttled_.end(), id),
                       throttled_.end());
    }
    if (throttled_.empty()) {
      batch_paused_ = false;
      failsafe_pause_ = false;
      governor_.abandon_pause();
    }
  } else {
    // The abandoned targets are still paused on the host: splice them
    // back into the intent set and re-raise the pause flags, or the
    // controller believes the batch is running while the VMs starve
    // forever. Re-latching failsafe_pause_ makes act() retry a failsafe
    // release the next period telemetry is Normal.
    for (sim::VmId id : pending_->targets) {
      if (std::find(throttled_.begin(), throttled_.end(), id) ==
          throttled_.end()) {
        throttled_.push_back(id);
      }
    }
    batch_paused_ = true;
    if (pending_->was_failsafe) failsafe_pause_ = true;
  }
  pending_.reset();
}

bool GovernorActuator::deliver(ActuationPort& port, ThrottleAction op,
                               sim::VmId id) {
  SA_DCHECK(op != ThrottleAction::None, "only pause/resume can be delivered");
  return op == ThrottleAction::Pause ? port.pause(id) : port.resume(id);
}

void GovernorActuator::select_throttle_targets(ActuationPort& port) {
  // Rank active batch VMs by their demand footprint (CPU share + memory
  // share + bus share) and take the head of the ranking until it covers
  // the majority of the total batch footprint.
  port.batch_footprints(footprints_);
  double total = 0.0;
  for (const auto& e : footprints_) total += e.footprint;
  std::sort(footprints_.begin(), footprints_.end(),
            [](const VmFootprint& a, const VmFootprint& b) {
              return a.footprint > b.footprint;
            });

  throttled_.clear();
  double covered = 0.0;
  for (const auto& e : footprints_) {
    throttled_.push_back(e.id);
    covered += e.footprint;
    if (total > 0.0 && covered / total >= 0.75) break;
  }

  // §2.1 fallback: with no batch VM to throttle, sacrifice lower-priority
  // sensitive VMs (when the deployment opted in).
  if (throttled_.empty() && allow_sensitive_demotion_) {
    throttled_ = port.demotion_candidates();
  }
}

void GovernorActuator::apply_action(ActuationPort& port, ThrottleAction action,
                                    bool failsafe_all_batch) {
  // A fresh decision supersedes whatever the retry ledger was still
  // chasing; undelivered commands below seed a new ledger entry.
  double now = port.now();
  switch (action) {
    case ThrottleAction::None:
      return;
    case ThrottleAction::Pause: {
      // throttled_ records intent — the pause set the loop believes is
      // stopped. deliver() records reality; the gap lands in pending_ and
      // reconcile_actuation() closes it with bounded retries.
      if (failsafe_all_batch) {
        throttled_ = port.present_batch();
      } else {
        select_throttle_targets(port);
      }
      std::vector<sim::VmId> undelivered;
      for (sim::VmId id : throttled_) {
        if (!deliver(port, ThrottleAction::Pause, id)) {
          undelivered.push_back(id);
        }
      }
      batch_paused_ = true;
      failsafe_pause_ = failsafe_all_batch;
      pending_.reset();
      if (!undelivered.empty() && degradation_.enabled) {
        pending_ = PendingActuation{ThrottleAction::Pause,
                                    std::move(undelivered), 1,
                                    now + retry_backoff(period_s_, 1),
                                    failsafe_all_batch};
      }
      return;
    }
    case ThrottleAction::Resume: {
      // Resume exactly what this actuator paused (batch VMs and, under
      // §2.1 demotion, lower-priority sensitive VMs).
      bool releasing_failsafe = failsafe_pause_;
      std::vector<sim::VmId> undelivered;
      for (sim::VmId id : throttled_) {
        if (!deliver(port, ThrottleAction::Resume, id)) {
          undelivered.push_back(id);
        }
      }
      throttled_.clear();
      batch_paused_ = false;
      failsafe_pause_ = false;
      pending_.reset();
      if (!undelivered.empty() && degradation_.enabled) {
        pending_ = PendingActuation{ThrottleAction::Resume,
                                    std::move(undelivered), 1,
                                    now + retry_backoff(period_s_, 1),
                                    releasing_failsafe};
      }
      return;
    }
  }
}

void GovernorActuator::persist(util::StateIO& io) {
  governor_.persist(io);
  io.boolean("batch_paused", batch_paused_);
  io.u64s("throttled", throttled_);
  io.boolean("failsafe_pause", failsafe_pause_);
  io.optional("has_pending", pending_, [&io](PendingActuation& p) {
    io.enumeration("pending_op", p.op, ThrottleAction::Resume);
    io.u64s("pending_targets", p.targets);
    io.u64("pending_attempts", p.attempts);
    io.real("pending_next_retry_time", p.next_retry_time);
    io.boolean("pending_was_failsafe", p.was_failsafe);
  });
  io.u64("actuation_retries_total", actuation_retries_total_);
  io.u64("actuation_abandoned_total", actuation_abandoned_total_);
}

}  // namespace stayaway::core
