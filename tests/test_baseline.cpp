// Unit tests for the baseline policies in their pipeline-stage form:
// no-prevention (an actuator-less HostPipeline), the reactive throttle
// (ReactiveActuator) and the static threshold (StaticThresholdActuator),
// each driven through a core::SimHostActuationPort exactly as the fleet
// runner drives them.
#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <vector>

#include "apps/cpubomb.hpp"
#include "apps/vlc_stream.hpp"
#include "baseline/stages/reactive_actuator.hpp"
#include "baseline/stages/static_actuator.hpp"
#include "core/host_port.hpp"
#include "core/pipeline.hpp"
#include "util/check.hpp"

namespace stayaway::baseline {
namespace {

sim::HostSpec host_spec() {
  sim::HostSpec spec;
  spec.cpu_cores = 4.0;
  spec.memory_mb = 4096.0;
  return spec;
}

struct Rig {
  sim::SimHost host;
  core::SimHostActuationPort port;
  const sim::QosProbe* probe = nullptr;
  sim::VmId batch;

  Rig() : host(host_spec(), 0.1), port(host), batch(0) {
    auto vlc = std::make_unique<apps::VlcStream>();
    probe = vlc.get();
    host.add_vm("vlc", sim::VmKind::Sensitive, std::move(vlc));
    batch = host.add_vm("bomb", sim::VmKind::Batch,
                        std::make_unique<apps::CpuBomb>());
  }
};

/// One control period's result: the action slice of the record plus the
/// actuator's outcome (what it touched and why).
struct Step {
  core::ThrottleAction action = core::ThrottleAction::None;
  bool batch_paused_after = false;
  core::Actuator::Outcome outcome;
};

/// Runs one 1 s period (10 ticks of 0.1 s), then lets the actuator act on
/// the observed QoS — the slice of HostPipeline::on_period a baseline
/// pipeline exercises.
Step step(core::Actuator& actuator, sim::SimHost& host,
          core::SimHostActuationPort& port, const sim::QosProbe& probe) {
  host.run(10);
  core::PeriodRecord rec;
  rec.time = host.now();
  rec.violation_observed = probe.violated();
  Step s;
  actuator.act(port, rec, core::DegradationState::Normal, nullptr, s.outcome);
  s.action = rec.action;
  s.batch_paused_after = rec.batch_paused_after;
  return s;
}

Step step(core::Actuator& actuator, Rig& rig) {
  return step(actuator, rig.host, rig.port, *rig.probe);
}

TEST(NoPrevention, NeverActs) {
  Rig rig;
  core::HostPipeline pipeline(rig.host, *rig.probe, core::StayAwayConfig{},
                              nullptr);
  for (int p = 0; p < 20; ++p) {
    rig.host.run(10);
    EXPECT_EQ(pipeline.on_period().action, core::ThrottleAction::None);
  }
  EXPECT_FALSE(rig.host.vm(rig.batch).paused());
  EXPECT_DOUBLE_EQ(rig.host.vm(rig.batch).paused_time(), 0.0);
  EXPECT_TRUE(rig.probe->violated());  // contention unchecked
}

TEST(Reactive, PausesAfterObservedViolation) {
  Rig rig;
  ReactiveActuator actuator;
  int periods_until_pause = 0;
  for (int p = 0; p < 20 && !rig.host.vm(rig.batch).paused(); ++p) {
    step(actuator, rig);
    ++periods_until_pause;
  }
  EXPECT_TRUE(rig.host.vm(rig.batch).paused());
  EXPECT_GE(actuator.pauses(), 1u);
  // The violation had to be *observed* first: at least one period passed.
  EXPECT_GE(periods_until_pause, 1);
}

TEST(Reactive, ResumesAfterCooldown) {
  Rig rig;
  ReactiveConfig cfg;
  cfg.cooldown_s = 3.0;
  ReactiveActuator actuator(cfg);
  // Drive to a pause.
  while (!rig.host.vm(rig.batch).paused()) step(actuator, rig);
  double paused_at = rig.host.now();
  // Run until resume.
  while (rig.host.vm(rig.batch).paused()) step(actuator, rig);
  EXPECT_GE(rig.host.now() - paused_at, 3.0 - 1e-9);
}

TEST(Reactive, RepausesOnRecurringViolation) {
  Rig rig;
  ReactiveConfig cfg;
  cfg.cooldown_s = 2.0;
  ReactiveActuator actuator(cfg);
  for (int p = 0; p < 60; ++p) step(actuator, rig);
  // CPUBomb always re-violates after resume: multiple pause cycles.
  EXPECT_GE(actuator.pauses(), 2u);
}

TEST(Reactive, InvalidCooldownRejected) {
  ReactiveConfig cfg;
  cfg.cooldown_s = 0.0;
  EXPECT_THROW(ReactiveActuator{cfg}, PreconditionError);
}

TEST(StaticThreshold, PausesOnHighCpuUtilization) {
  Rig rig;
  StaticThresholdConfig cfg;
  cfg.cpu_cap = 0.85;
  StaticThresholdActuator actuator(cfg);
  for (int p = 0; p < 5; ++p) step(actuator, rig);
  // VLC (2.6) + CPUBomb (4) saturate the host: utilization ~1 > cap.
  EXPECT_TRUE(rig.host.vm(rig.batch).paused());
  EXPECT_GE(actuator.pauses(), 1u);
}

TEST(StaticThreshold, ResumesBelowHysteresis) {
  Rig rig;
  StaticThresholdConfig cfg;
  cfg.cpu_cap = 0.85;
  cfg.hysteresis = 0.1;
  StaticThresholdActuator actuator(cfg);
  // Pause under load.
  for (int p = 0; p < 5; ++p) step(actuator, rig);
  ASSERT_TRUE(rig.host.vm(rig.batch).paused());
  // With the bomb paused, VLC alone uses 2.6/4 = 0.65 < 0.75: resume.
  for (int p = 0; p < 3; ++p) step(actuator, rig);
  EXPECT_FALSE(rig.host.vm(rig.batch).paused());
}

TEST(StaticThreshold, BlindToSwapViolations) {
  // A memory-driven violation at modest CPU utilization slips under a
  // CPU-cap policy — the paper's core argument against static rules.
  sim::SimHost host(host_spec(), 0.1);
  auto vlc = std::make_unique<apps::VlcStream>();
  const sim::QosProbe* probe = vlc.get();
  host.add_vm("vlc", sim::VmKind::Sensitive, std::move(vlc));

  // Batch that holds a huge working set but almost no CPU.
  class MemHog final : public sim::AppModel {
   public:
    std::string_view name() const override { return "memhog"; }
    sim::ResourceDemand demand(sim::SimTime) override {
      sim::ResourceDemand d;
      d.cpu_cores = 0.1;
      d.memory_mb = 4200.0;  // alone it swaps a little; with VLC, a lot
      return d;
    }
    void advance(sim::SimTime, double, const sim::Allocation&) override {}
  };
  auto hog_id = host.add_vm("hog", sim::VmKind::Batch,
                            std::make_unique<MemHog>());

  StaticThresholdConfig cfg;
  cfg.cpu_cap = 0.9;
  cfg.memory_cap = 2.0;  // memory rule effectively disabled
  cfg.membw_cap = 0.9;
  StaticThresholdActuator actuator(cfg);
  core::SimHostActuationPort port(host);
  for (int p = 0; p < 20; ++p) step(actuator, host, port, *probe);
  EXPECT_FALSE(host.vm(hog_id).paused());
  EXPECT_TRUE(probe->violated());  // swap hurt VLC, policy never noticed
}

TEST(StaticThreshold, InvalidHysteresisRejected) {
  StaticThresholdConfig cfg;
  cfg.hysteresis = -0.1;
  EXPECT_THROW(StaticThresholdActuator{cfg}, PreconditionError);
}

TEST(BaselineOutcome, NoPreventionAlwaysNone) {
  Rig rig;
  core::HostPipeline pipeline(rig.host, *rig.probe, core::StayAwayConfig{},
                              nullptr);
  rig.host.run(10);
  const core::PeriodRecord& rec = pipeline.on_period();
  EXPECT_EQ(rec.action, core::ThrottleAction::None);
  EXPECT_FALSE(rec.batch_paused_after);
  const core::Actuator::Outcome& outcome = pipeline.last_outcome();
  EXPECT_TRUE(outcome.paused.empty());
  EXPECT_TRUE(outcome.resumed.empty());
  EXPECT_TRUE(outcome.reason.empty());
}

TEST(BaselineOutcome, ReactiveReportsPauseAndResume) {
  Rig rig;
  ReactiveConfig cfg;
  cfg.cooldown_s = 2.0;
  ReactiveActuator actuator(cfg);
  Step s;
  // Drive to the first pause and inspect that decision.
  for (int p = 0; p < 20; ++p) {
    s = step(actuator, rig);
    if (s.action != core::ThrottleAction::None) break;
  }
  EXPECT_EQ(s.action, core::ThrottleAction::Pause);
  EXPECT_EQ(s.outcome.reason, "observed-violation");
  EXPECT_EQ(s.outcome.paused, std::vector<sim::VmId>{rig.batch});
  EXPECT_TRUE(s.batch_paused_after);
  EXPECT_TRUE(actuator.batch_paused());
  // And the eventual resume names the cooldown.
  for (int p = 0; p < 40; ++p) {
    s = step(actuator, rig);
    if (s.action == core::ThrottleAction::Resume) break;
  }
  EXPECT_EQ(s.action, core::ThrottleAction::Resume);
  EXPECT_EQ(s.outcome.reason, "cooldown-elapsed");
  EXPECT_EQ(s.outcome.resumed, std::vector<sim::VmId>{rig.batch});
  EXPECT_FALSE(s.batch_paused_after);
  EXPECT_FALSE(actuator.batch_paused());
}

TEST(BaselineOutcome, StaticThresholdNamesItsRules) {
  Rig rig;
  StaticThresholdConfig cfg;
  cfg.cpu_cap = 0.85;
  cfg.hysteresis = 0.1;
  StaticThresholdActuator actuator(cfg);
  Step s;
  for (int p = 0; p < 5; ++p) {
    s = step(actuator, rig);
    if (s.action != core::ThrottleAction::None) break;
  }
  EXPECT_EQ(s.action, core::ThrottleAction::Pause);
  EXPECT_EQ(s.outcome.reason, "threshold-exceeded");
  ASSERT_FALSE(s.outcome.paused.empty());
  for (int p = 0; p < 5; ++p) {
    s = step(actuator, rig);
    if (s.action == core::ThrottleAction::Resume) break;
  }
  EXPECT_EQ(s.action, core::ThrottleAction::Resume);
  EXPECT_EQ(s.outcome.reason, "below-hysteresis");
}

// The fleet runner's `decision` event spells the action through
// core::to_string(ThrottleAction); these strings are part of the stream.
TEST(BaselineOutcome, ActionNamesStable) {
  EXPECT_STREQ(core::to_string(core::ThrottleAction::None), "none");
  EXPECT_STREQ(core::to_string(core::ThrottleAction::Pause), "pause");
  EXPECT_STREQ(core::to_string(core::ThrottleAction::Resume), "resume");
}

}  // namespace
}  // namespace stayaway::baseline
