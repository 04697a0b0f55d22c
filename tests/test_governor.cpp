// Unit tests for the throttle governor (§3.3): pause triggers, beta-based
// resume, failed-resume learning, anti-starvation, and the actuator's
// retry/backoff ledger edge cases (abandonment rollback, failsafe
// re-latch) against a fake actuation port.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/governor.hpp"
#include "core/stages/actuator.hpp"
#include "util/check.hpp"

namespace stayaway::core {
namespace {

GovernorConfig test_config() {
  GovernorConfig c;
  c.beta_initial = 0.01;
  c.beta_increment = 0.005;
  c.resume_grace_s = 3.0;
  c.starvation_patience_s = 20.0;
  c.random_resume_probability = 1.0;  // deterministic once eligible
  return c;
}

TEST(Governor, PausesOnPredictedViolation) {
  ThrottleGovernor gov(test_config(), Rng(1));
  auto action = gov.decide(0.0, /*paused=*/false, /*predicted=*/true,
                           /*observed=*/false, {0.0, 0.0});
  EXPECT_EQ(action, ThrottleAction::Pause);
  EXPECT_EQ(gov.pauses(), 1u);
}

TEST(Governor, PausesOnObservedViolation) {
  ThrottleGovernor gov(test_config(), Rng(1));
  auto action = gov.decide(0.0, false, false, /*observed=*/true, {0.0, 0.0});
  EXPECT_EQ(action, ThrottleAction::Pause);
}

TEST(Governor, NoActionWhenQuiet) {
  ThrottleGovernor gov(test_config(), Rng(1));
  EXPECT_EQ(gov.decide(0.0, false, false, false, {0.0, 0.0}),
            ThrottleAction::None);
  EXPECT_EQ(gov.pauses(), 0u);
}

TEST(Governor, ResumesWhenMovementExceedsBeta) {
  ThrottleGovernor gov(test_config(), Rng(1));
  gov.decide(0.0, false, true, false, {0.0, 0.0});  // Pause
  // First paused period seeds the distance chain, no resume yet.
  EXPECT_EQ(gov.decide(1.0, true, false, false, {0.5, 0.5}),
            ThrottleAction::None);
  // Tiny movement below beta: stay paused.
  EXPECT_EQ(gov.decide(2.0, true, false, false, {0.505, 0.5}),
            ThrottleAction::None);
  // Large movement (phase change): resume.
  EXPECT_EQ(gov.decide(3.0, true, false, false, {0.8, 0.8}),
            ThrottleAction::Resume);
  EXPECT_EQ(gov.resumes(), 1u);
}

TEST(Governor, FailedResumeBumpsBeta) {
  GovernorConfig cfg = test_config();
  cfg.random_resume_probability = 0.0;
  ThrottleGovernor gov(cfg, Rng(1));
  double beta0 = gov.beta();

  gov.decide(0.0, false, true, false, {0.0, 0.0});    // Pause
  gov.decide(1.0, true, false, false, {0.0, 0.0});    // seed chain
  gov.decide(2.0, true, false, false, {1.0, 1.0});    // Resume (beta exceeded)
  // Violation within the grace window: beta must grow.
  auto action = gov.decide(3.0, false, false, /*observed=*/true, {1.0, 1.0});
  EXPECT_EQ(action, ThrottleAction::Pause);  // re-pause on violation
  EXPECT_GT(gov.beta(), beta0);
  EXPECT_EQ(gov.failed_resumes(), 1u);
}

TEST(Governor, LateViolationDoesNotBumpBeta) {
  GovernorConfig cfg = test_config();
  cfg.resume_grace_s = 1.0;
  cfg.random_resume_probability = 0.0;
  ThrottleGovernor gov(cfg, Rng(1));
  gov.decide(0.0, false, true, false, {0.0, 0.0});
  gov.decide(1.0, true, false, false, {0.0, 0.0});
  gov.decide(2.0, true, false, false, {1.0, 1.0});  // Resume at t=2
  double beta_after_resume = gov.beta();
  // Violation at t=10, far past the grace window.
  gov.decide(10.0, false, false, true, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(gov.beta(), beta_after_resume);
  EXPECT_EQ(gov.failed_resumes(), 0u);
}

TEST(Governor, AntiStarvationResumesAfterPatience) {
  ThrottleGovernor gov(test_config(), Rng(1));
  gov.decide(0.0, false, true, false, {0.0, 0.0});  // Pause at t=0
  // Stationary states well past the patience window.
  for (double t = 1.0; t < 20.0; t += 1.0) {
    EXPECT_EQ(gov.decide(t, true, false, false, {0.0, 0.0}),
              ThrottleAction::None)
        << "at t=" << t;
  }
  // At t=20 patience is reached; probability 1 -> resume.
  EXPECT_EQ(gov.decide(20.0, true, false, false, {0.0, 0.0}),
            ThrottleAction::Resume);
  EXPECT_EQ(gov.random_resumes(), 1u);
}

TEST(Governor, AntiStarvationRespectsProbability) {
  GovernorConfig cfg = test_config();
  cfg.random_resume_probability = 0.0;
  ThrottleGovernor gov(cfg, Rng(1));
  gov.decide(0.0, false, true, false, {0.0, 0.0});
  for (double t = 1.0; t < 100.0; t += 1.0) {
    EXPECT_EQ(gov.decide(t, true, false, false, {0.0, 0.0}),
              ThrottleAction::None);
  }
  EXPECT_EQ(gov.random_resumes(), 0u);
}

TEST(Governor, AntiStarvationViolationDoesNotBumpBeta) {
  // §3.3: a random resume that fails just re-pauses; only beta-triggered
  // resumes teach beta.
  ThrottleGovernor gov(test_config(), Rng(1));
  double beta0 = gov.beta();
  gov.decide(0.0, false, true, false, {0.0, 0.0});  // Pause at t=0
  gov.decide(1.0, true, false, false, {0.0, 0.0});  // seed chain
  auto action = gov.decide(21.0, true, false, false, {0.0, 0.0});
  EXPECT_EQ(action, ThrottleAction::Resume);  // anti-starvation fires
  gov.decide(22.0, false, false, true, {0.0, 0.0});  // violates right away
  EXPECT_DOUBLE_EQ(gov.beta(), beta0);
  EXPECT_EQ(gov.failed_resumes(), 0u);
}

TEST(Governor, PausedAtStartDoesNotInstantlyStarve) {
  // First decide() observes an externally initiated pause long after the
  // epoch: the starvation timer must start at that observation, not at a
  // default time-zero that instantly satisfies the patience.
  ThrottleGovernor gov(test_config(), Rng(1));
  EXPECT_EQ(gov.decide(100.0, /*paused=*/true, false, false, {0.0, 0.0}),
            ThrottleAction::None);
  // Stationary states within the patience window: still nothing.
  EXPECT_EQ(gov.decide(110.0, true, false, false, {0.0, 0.0}),
            ThrottleAction::None);
  EXPECT_EQ(gov.random_resumes(), 0u);
  // Patience measured from the first paused observation (t=100).
  EXPECT_EQ(gov.decide(120.0, true, false, false, {0.0, 0.0}),
            ThrottleAction::Resume);
  EXPECT_EQ(gov.random_resumes(), 1u);
}

TEST(Governor, PauseResetsDistanceChain) {
  ThrottleGovernor gov(test_config(), Rng(1));
  gov.decide(0.0, false, true, false, {0.0, 0.0});  // Pause
  gov.decide(1.0, true, false, false, {5.0, 5.0});  // seeds at (5,5)
  gov.decide(2.0, true, false, false, {5.6, 5.0});  // resume (move 0.6)
  // New pause: the old chain must not leak into the new one.
  gov.decide(3.0, false, true, false, {9.0, 9.0});  // Pause again
  EXPECT_EQ(gov.decide(4.0, true, false, false, {0.0, 0.0}),
            ThrottleAction::None);  // first period only seeds
}

TEST(Governor, InvalidConfigRejected) {
  GovernorConfig cfg = test_config();
  cfg.beta_initial = 0.0;
  EXPECT_THROW(ThrottleGovernor(cfg, Rng(1)), PreconditionError);
}

TEST(Governor, BetaMaxCapsFailedResumeGrowth) {
  // Regression: repeated resume-then-re-violate cycles used to grow beta
  // without bound, eventually making a beta-triggered resume unreachable.
  GovernorConfig cfg = test_config();
  cfg.random_resume_probability = 0.0;
  cfg.beta_max = 0.02;  // two increments above beta_initial
  ThrottleGovernor gov(cfg, Rng(1));

  double t = 0.0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    gov.decide(t, false, true, false, {0.0, 0.0});        // Pause
    gov.decide(t + 1.0, true, false, false, {0.0, 0.0});  // seed chain
    EXPECT_EQ(gov.decide(t + 2.0, true, false, false, {1.0, 1.0}),
              ThrottleAction::Resume);
    // Re-violation inside the grace window: a failed resume each cycle.
    gov.decide(t + 3.0, false, false, true, {1.0, 1.0});
    t += 10.0;
  }
  EXPECT_EQ(gov.failed_resumes(), 10u);
  EXPECT_DOUBLE_EQ(gov.beta(), cfg.beta_max);
  // And the cap keeps the beta-triggered resume path alive: sufficient
  // movement must still resume.
  gov.decide(t + 1.0, true, false, false, {0.0, 0.0});
  EXPECT_EQ(gov.decide(t + 2.0, true, false, false, {1.0, 1.0}),
            ThrottleAction::Resume);
}

TEST(Governor, BetaMaxBelowInitialRejected) {
  GovernorConfig cfg = test_config();
  cfg.beta_max = cfg.beta_initial / 2.0;
  EXPECT_THROW(ThrottleGovernor(cfg, Rng(1)), PreconditionError);
  // <= 0 disables the cap instead of rejecting.
  cfg.beta_max = 0.0;
  EXPECT_NO_THROW(ThrottleGovernor(cfg, Rng(1)));
}

TEST(Governor, ActionNamesStable) {
  EXPECT_STREQ(to_string(ThrottleAction::None), "none");
  EXPECT_STREQ(to_string(ThrottleAction::Pause), "pause");
  EXPECT_STREQ(to_string(ThrottleAction::Resume), "resume");
}

TEST(Governor, AbandonPauseClearsTheLedger) {
  // An abandoned pause must not leak its starvation clock into the next
  // (externally observed) pause: patience is 20 s, so inheriting the
  // t=0 clock at t=25 would instantly fire the lottery.
  ThrottleGovernor gov(test_config(), Rng(1));  // probability 1.0
  EXPECT_EQ(gov.decide(0.0, false, true, false, {0.0, 0.0}),
            ThrottleAction::Pause);
  gov.abandon_pause();
  EXPECT_EQ(gov.decide(25.0, true, false, false, {0.0, 0.0}),
            ThrottleAction::None);
  EXPECT_EQ(gov.decide(26.0, true, false, false, {0.0, 0.0}),
            ThrottleAction::None);
  EXPECT_EQ(gov.random_resumes(), 0u);
}

/// Fake actuation port with switchable pause/resume delivery, tracking
/// what is actually paused on the "host".
class FakePort final : public ActuationPort {
 public:
  double time = 0.0;
  bool pause_ok = true;
  bool resume_ok = true;
  std::vector<sim::VmId> batch = {1, 2};
  std::vector<sim::VmId> paused;

  double now() const override { return time; }
  void batch_footprints(std::vector<VmFootprint>& out) const override {
    out.clear();
    for (sim::VmId id : batch) out.push_back({id, 1.0});
  }
  std::vector<sim::VmId> present_batch() const override { return batch; }
  std::vector<sim::VmId> all_batch() const override { return batch; }
  std::vector<sim::VmId> demotion_candidates() const override { return {}; }
  ResourceUtilization utilization() const override { return {}; }
  bool pause(sim::VmId id) override {
    if (!pause_ok) return false;
    if (std::find(paused.begin(), paused.end(), id) == paused.end()) {
      paused.push_back(id);
    }
    return true;
  }
  bool resume(sim::VmId id) override {
    if (!resume_ok) return false;
    paused.erase(std::remove(paused.begin(), paused.end(), id), paused.end());
    return true;
  }
};

StayAwayConfig actuator_config() {
  StayAwayConfig cfg;
  cfg.governor.random_resume_probability = 0.0;
  cfg.degradation.actuation_max_retries = 2;
  return cfg;
}

PeriodRecord period_at(double t, bool observed = false,
                       mds::Point2 state = {0.0, 0.0}) {
  PeriodRecord rec;
  rec.time = t;
  rec.violation_observed = observed;
  rec.state = state;
  return rec;
}

/// One act() call into a fresh outcome, as the pipeline makes it.
void act(GovernorActuator& actuator, FakePort& port, PeriodRecord& rec,
         DegradationState degradation) {
  Actuator::Outcome outcome;
  actuator.act(port, rec, degradation, nullptr, outcome);
}

TEST(ActuatorLedger, AbandonedPauseRollsBackTheBooks) {
  GovernorActuator actuator(actuator_config());
  FakePort port;
  port.pause_ok = false;  // the channel drops every pause command

  PeriodRecord rec = period_at(0.0, /*observed=*/true);
  port.time = 0.0;
  act(actuator, port, rec, DegradationState::Normal);
  EXPECT_EQ(rec.action, ThrottleAction::Pause);
  EXPECT_TRUE(rec.actuation_pending);
  EXPECT_TRUE(rec.batch_paused_after);

  // Retries at t=1 (attempt 2) and t=3 (attempt 3 > budget 2): abandon.
  for (double t : {1.0, 2.0, 3.0}) {
    rec = period_at(t);
    port.time = t;
    act(actuator, port, rec, DegradationState::Normal);
  }
  // Nothing was ever paused on the host; the books must say so instead
  // of leaving the governor reasoning in its paused branch over a
  // running system.
  EXPECT_FALSE(rec.actuation_pending);
  EXPECT_FALSE(rec.batch_paused_after);
  EXPECT_FALSE(actuator.batch_paused());
  EXPECT_TRUE(actuator.throttled().empty());
  EXPECT_TRUE(port.paused.empty());
  EXPECT_EQ(actuator.actuation_abandoned(), 2u);

  // A later violation pauses from the running branch, proving the
  // governor's ledger was rolled back too.
  port.pause_ok = true;
  rec = period_at(10.0, /*observed=*/true);
  port.time = 10.0;
  act(actuator, port, rec, DegradationState::Normal);
  EXPECT_EQ(rec.action, ThrottleAction::Pause);
  EXPECT_EQ(port.paused.size(), 2u);
}

TEST(ActuatorLedger, AbandonedResumeKeepsPausedBooks) {
  StayAwayConfig cfg = actuator_config();
  cfg.degradation.actuation_max_retries = 1;
  GovernorActuator actuator(cfg);
  FakePort port;

  // Deliver a pause, then break the resume channel.
  port.time = 0.0;
  PeriodRecord rec = period_at(0.0, /*observed=*/true);
  act(actuator, port, rec, DegradationState::Normal);
  ASSERT_EQ(port.paused.size(), 2u);

  port.resume_ok = false;
  port.time = 1.0;
  rec = period_at(1.0);  // seeds the distance chain
  act(actuator, port, rec, DegradationState::Normal);
  port.time = 2.0;
  rec = period_at(2.0, false, {1.0, 1.0});  // movement >> beta
  act(actuator, port, rec, DegradationState::Normal);
  EXPECT_EQ(rec.action, ThrottleAction::Resume);
  EXPECT_TRUE(rec.actuation_pending);

  // Retry at t=3 exhausts the budget of 1: the VMs are still paused on
  // the host, so the books must return to paused instead of starving
  // them forever behind a "running" flag.
  port.time = 3.0;
  rec = period_at(3.0, false, {1.0, 1.0});
  act(actuator, port, rec, DegradationState::Normal);
  EXPECT_FALSE(rec.actuation_pending);
  EXPECT_TRUE(rec.batch_paused_after);
  EXPECT_TRUE(actuator.batch_paused());
  EXPECT_EQ(actuator.throttled().size(), 2u);
  EXPECT_EQ(port.paused.size(), 2u);

  // Once the channel heals, a beta-exceeded resume releases them.
  port.resume_ok = true;
  port.time = 4.0;
  rec = period_at(4.0, false, {2.0, 2.0});
  act(actuator, port, rec, DegradationState::Normal);
  EXPECT_EQ(rec.action, ThrottleAction::Resume);
  EXPECT_TRUE(port.paused.empty());
  EXPECT_FALSE(actuator.batch_paused());
}

TEST(ActuatorLedger, AbandonedFailsafeReleaseRelatchesFailsafe) {
  StayAwayConfig cfg = actuator_config();
  cfg.degradation.actuation_max_retries = 1;
  GovernorActuator actuator(cfg);
  FakePort port;

  // QoS-blind failsafe: every batch VM is paused.
  port.time = 0.0;
  PeriodRecord rec = period_at(0.0);
  act(actuator, port, rec, DegradationState::Failsafe);
  EXPECT_EQ(rec.action, ThrottleAction::Pause);
  ASSERT_EQ(port.paused.size(), 2u);

  // Telemetry recovers but the resume channel is dead: the release is
  // issued, retried once, and abandoned.
  port.resume_ok = false;
  port.time = 1.0;
  rec = period_at(1.0);
  act(actuator, port, rec, DegradationState::Normal);
  EXPECT_EQ(rec.action, ThrottleAction::Resume);
  EXPECT_TRUE(rec.actuation_pending);

  // Abandonment must re-latch the failsafe (the VMs are still paused),
  // so the very same period retries the release instead of dropping it.
  port.time = 2.0;
  rec = period_at(2.0);
  act(actuator, port, rec, DegradationState::Normal);
  EXPECT_EQ(rec.action, ThrottleAction::Resume);
  EXPECT_TRUE(rec.batch_paused_after || rec.actuation_pending);

  // Channel heals: the pending release is delivered by reconciliation.
  port.resume_ok = true;
  port.time = 3.0;
  rec = period_at(3.0);
  act(actuator, port, rec, DegradationState::Normal);
  EXPECT_TRUE(port.paused.empty());
  EXPECT_FALSE(actuator.batch_paused());
  EXPECT_FALSE(rec.actuation_pending);
}

}  // namespace
}  // namespace stayaway::core
