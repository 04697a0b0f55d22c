#include "core/governor.hpp"

#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace stayaway::core {

const char* to_string(ThrottleAction action) {
  switch (action) {
    case ThrottleAction::None:
      return "none";
    case ThrottleAction::Pause:
      return "pause";
    case ThrottleAction::Resume:
      return "resume";
  }
  return "unknown";
}

const char* to_string(ResumeReason reason) {
  switch (reason) {
    case ResumeReason::BetaExceeded:
      return "beta-exceeded";
    case ResumeReason::AntiStarvation:
      return "anti-starvation";
  }
  return "unknown";
}

// The Rng is a sink parameter (its MT19937-64 state is ~2.5 KB):
// moved, not copied, into the member.
ThrottleGovernor::ThrottleGovernor(GovernorConfig config, Rng rng)
    : config_(config), rng_(std::move(rng)), beta_(config.beta_initial) {
  SA_REQUIRE(config.beta_initial > 0.0, "beta must start positive");
  SA_REQUIRE(config.beta_increment >= 0.0, "beta increment must be >= 0");
  SA_REQUIRE(config.beta_max <= 0.0 || config.beta_max >= config.beta_initial,
             "beta_max must be >= beta_initial (or <= 0 to disable the cap)");
}

void ThrottleGovernor::abandon_pause() {
  // Deliberately leaves resumed_at_/last_resume_reason_ untouched: an
  // abandoned pause never ran, so any in-flight probation window from
  // the preceding resume remains meaningful.
  paused_since_.reset();
  last_paused_state_.reset();
}

ThrottleAction ThrottleGovernor::decide(double now, bool batch_paused,
                                        bool violation_predicted,
                                        bool violation_observed,
                                        const mds::Point2& mapped_state) {
  SA_CHECK(std::isfinite(now), "decision time must be finite");
  SA_CHECK(beta_ > 0.0, "beta must stay positive across decisions");
  if (!batch_paused) {
    bool in_probation = resumed_at_.has_value() &&
                        now - *resumed_at_ <= config_.resume_grace_s;
    if (violation_observed && in_probation &&
        last_resume_reason_ == ResumeReason::BetaExceeded) {
      // The phase change beta detected was not enough: learn a larger
      // one, capped so repeated failed-resume cycles cannot push beta
      // past the point where resume becomes permanently unreachable.
      beta_ += config_.beta_increment;
      if (config_.beta_max > 0.0 && beta_ > config_.beta_max) {
        beta_ = config_.beta_max;
      }
      ++failed_resumes_;
    }
    // §3.3: a resume is a deliberate probe "in hope that the batch
    // application may experience a phase transition"; it is cut short only
    // if the sensitive application actually degrades ("if the batch
    // application continues to degrade performance ... it is paused
    // again"). Within the probation window, predictions — made from map
    // states of the paused regime, hence stale — do not cancel the probe.
    bool prediction_counts = violation_predicted && !in_probation;
    if (prediction_counts || violation_observed) {
      ++pauses_;
      paused_since_ = now;
      last_paused_state_.reset();  // next period seeds the distance chain
      resumed_at_.reset();
      // A Pause is only ever emitted from the running branch, so a
      // pause->pause double-transition is impossible; the bookkeeping it
      // leaves behind must describe exactly one open pause.
      SA_DCHECK(paused_since_.has_value() && !last_paused_state_.has_value() &&
                    !resumed_at_.has_value(),
                "Pause must leave exactly one open pause on the books");
      return ThrottleAction::Pause;
    }
    return ThrottleAction::None;
  }

  // Batch is paused: only the sensitive app runs, so consecutive states
  // cluster unless its phase or workload changes (§3.3).
  if (!paused_since_.has_value()) {
    // Pause initiated outside this governor (e.g. an operator, or state
    // carried over a restart): the starvation clock starts at the first
    // observation, not at a default epoch that would make `now - since`
    // instantly exceed the patience and fire spurious resumes.
    paused_since_ = now;
  }
  ThrottleAction action = ThrottleAction::None;
  if (last_paused_state_.has_value()) {
    double moved = mds::distance(*last_paused_state_, mapped_state);
    if (moved > beta_) {
      action = ThrottleAction::Resume;
      last_resume_reason_ = ResumeReason::BetaExceeded;
    }
  }
  if (action == ThrottleAction::None &&
      now - *paused_since_ >= config_.starvation_patience_s &&
      rng_.chance(config_.random_resume_probability)) {
    action = ThrottleAction::Resume;
    last_resume_reason_ = ResumeReason::AntiStarvation;
    ++random_resumes_;
  }

  if (action == ThrottleAction::Resume) {
    ++resumes_;
    resumed_at_ = now;
    last_paused_state_.reset();
    paused_since_.reset();
    // A Resume is only ever emitted from the paused branch, so a
    // resume->resume double-transition is impossible; the pause ledger
    // must be fully closed once it fires.
    SA_DCHECK(!paused_since_.has_value() && !last_paused_state_.has_value() &&
                  resumed_at_.has_value() && last_resume_reason_.has_value(),
              "Resume must close the pause ledger");
  } else {
    last_paused_state_ = mapped_state;
  }
  return action;
}

void ThrottleGovernor::persist(util::StateIO& io) {
  io.rng("governor_rng", rng_);
  io.real("beta", beta_);
  io.optional("has_last_paused_state", last_paused_state_,
              [&io](mds::Point2& p) {
                io.real("last_paused_x", p.x);
                io.real("last_paused_y", p.y);
              });
  io.optional("has_paused_since", paused_since_,
              [&io](double& t) { io.real("paused_since", t); });
  io.optional("has_resumed_at", resumed_at_,
              [&io](double& t) { io.real("resumed_at", t); });
  io.optional("has_last_resume_reason", last_resume_reason_,
              [&io](ResumeReason& reason) {
                io.enumeration("last_resume_reason", reason,
                               ResumeReason::AntiStarvation);
              });
  io.u64("pauses", pauses_);
  io.u64("resumes", resumes_);
  io.u64("failed_resumes", failed_resumes_);
  io.u64("random_resumes", random_resumes_);
}

}  // namespace stayaway::core
