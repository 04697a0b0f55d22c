// Tests for the labelling and observability mechanisms layered on the
// paper's core design: evidence-based state labels, the swap-I/O
// monitoring signal, the QoS hysteresis latch, and the governor's
// post-resume probation.
#include <gtest/gtest.h>

#include "apps/qos_latch.hpp"
#include "core/governor.hpp"
#include "core/statespace.hpp"
#include "monitor/measurement.hpp"
#include "sim/contention.hpp"
#include "util/check.hpp"

namespace stayaway {
namespace {

// ------------------------------------------------- evidence-based labels
TEST(EvidenceLabels, SingleViolatingVisitLabelsState) {
  core::StateSpace space;
  space.add_state(core::StateLabel::Safe);
  space.observe_visit(0, true);
  EXPECT_EQ(space.label(0), core::StateLabel::Violation);
}

TEST(EvidenceLabels, RareCoincidenceDoesNotPoisonFrequentState) {
  // A state visited many times safely, with one unlucky violating visit,
  // must stay Safe (the rep-12 plateau problem).
  core::StateSpace space;
  space.add_state(core::StateLabel::Safe);
  for (int i = 0; i < 20; ++i) space.observe_visit(0, false);
  space.observe_visit(0, true);
  EXPECT_EQ(space.label(0), core::StateLabel::Safe);
  EXPECT_EQ(space.violation_count(), 0u);
}

TEST(EvidenceLabels, MajorityEvidenceFlips) {
  core::StateSpace space;
  space.add_state(core::StateLabel::Safe);
  space.observe_visit(0, false);
  space.observe_visit(0, true);  // 1/2 = 50% >= 30%
  EXPECT_EQ(space.label(0), core::StateLabel::Violation);
}

TEST(EvidenceLabels, LabelCanRecoverWithMoreSafeEvidence) {
  core::StateSpace space;
  space.add_state(core::StateLabel::Safe);
  space.observe_visit(0, true);
  EXPECT_EQ(space.label(0), core::StateLabel::Violation);
  for (int i = 0; i < 10; ++i) space.observe_visit(0, false);
  EXPECT_EQ(space.label(0), core::StateLabel::Safe);
}

TEST(EvidenceLabels, ForcedViolationIsSticky) {
  core::StateSpace space;
  space.add_state(core::StateLabel::Safe);
  space.force_violation(0);
  for (int i = 0; i < 50; ++i) space.observe_visit(0, false);
  EXPECT_EQ(space.label(0), core::StateLabel::Violation);
}

TEST(EvidenceLabels, InitialViolationLabelBehavesForced) {
  core::StateSpace space;
  space.add_state(core::StateLabel::Violation);
  for (int i = 0; i < 50; ++i) space.observe_visit(0, false);
  EXPECT_EQ(space.label(0), core::StateLabel::Violation);
}

TEST(EvidenceLabels, VisitCountersExposed) {
  core::StateSpace space;
  space.add_state(core::StateLabel::Safe);
  space.observe_visit(0, true);
  space.observe_visit(0, false);
  EXPECT_EQ(space.visits(0), 2u);
  EXPECT_EQ(space.violating_visits(0), 1u);
  EXPECT_THROW(space.visits(1), PreconditionError);
}

// ------------------------------------------------------- swap I/O signal
TEST(SwapIoSignal, NoSwapNoTraffic) {
  sim::HostSpec host;
  host.memory_mb = 4096.0;
  std::vector<sim::ResourceDemand> demands(1);
  demands[0].memory_mb = 2000.0;
  std::vector<sim::Allocation> alloc;
  sim::resolve_contention(host, demands, alloc);
  EXPECT_DOUBLE_EQ(alloc[0].swap_io_mbps, 0.0);
}

TEST(SwapIoSignal, SwapGeneratesDiskTraffic) {
  sim::HostSpec host;
  host.memory_mb = 4096.0;
  host.disk_mbps = 200.0;
  std::vector<sim::ResourceDemand> demands(2);
  demands[0].memory_mb = 3000.0;
  demands[1].memory_mb = 3000.0;  // 6000 > 4096: both swap
  std::vector<sim::Allocation> alloc;
  sim::resolve_contention(host, demands, alloc);
  EXPECT_GT(alloc[0].swap_io_mbps, 0.0);
  EXPECT_LE(alloc[0].swap_io_mbps, host.disk_mbps);
}

TEST(SwapIoSignal, SteepResponseSaturates) {
  sim::HostSpec host;
  host.memory_mb = 1000.0;
  host.disk_mbps = 200.0;
  std::vector<sim::ResourceDemand> demands(1);
  demands[0].memory_mb = 2000.0;  // 50% swapped -> 4 * 0.5 >= 1 -> saturated
  std::vector<sim::Allocation> alloc;
  sim::resolve_contention(host, demands, alloc);
  EXPECT_DOUBLE_EQ(alloc[0].swap_io_mbps, host.disk_mbps);
}

TEST(SwapIoSignal, VisibleThroughDiskMetric) {
  sim::Allocation alloc;
  alloc.granted.disk_mbps = 10.0;
  alloc.swap_io_mbps = 50.0;
  EXPECT_DOUBLE_EQ(
      monitor::allocation_metric(alloc, monitor::MetricKind::DiskIo), 60.0);
}

// ------------------------------------------------------------- qos latch
TEST(QosLatch, EntersOnThresholdCrossing) {
  apps::QosLatch latch(0.05);
  EXPECT_FALSE(latch.update(30.0, 24.0));
  EXPECT_TRUE(latch.update(23.0, 24.0));
}

TEST(QosLatch, HoldsUntilClearRecovery) {
  apps::QosLatch latch(0.05);
  latch.update(20.0, 24.0);                  // enter
  EXPECT_TRUE(latch.update(24.5, 24.0));     // above threshold, inside margin
  EXPECT_TRUE(latch.update(25.1, 24.0));     // 25.2 needed to exit
  EXPECT_FALSE(latch.update(25.5, 24.0));    // clear recovery
}

TEST(QosLatch, NoFlipFlopAroundThreshold) {
  apps::QosLatch latch(0.05);
  int transitions = 0;
  bool prev = false;
  // Metric oscillating within the hysteresis band: one transition only.
  for (int i = 0; i < 100; ++i) {
    double v = 24.0 + ((i % 2 == 0) ? -0.2 : 0.4);
    bool cur = latch.update(v, 24.0);
    if (cur != prev) ++transitions;
    prev = cur;
  }
  EXPECT_EQ(transitions, 1);
}

TEST(QosLatch, ZeroMarginDegeneratesToComparison) {
  apps::QosLatch latch(0.0);
  EXPECT_TRUE(latch.update(23.0, 24.0));
  EXPECT_FALSE(latch.update(24.1, 24.0));
}

TEST(QosLatch, NegativeMarginRejected) {
  EXPECT_THROW(apps::QosLatch{-0.1}, PreconditionError);
}

// --------------------------------------------------- governor probation
TEST(GovernorProbation, PredictionIgnoredDuringProbeWindow) {
  core::GovernorConfig cfg;
  cfg.beta_initial = 0.01;
  cfg.resume_grace_s = 3.0;
  cfg.starvation_patience_s = 5.0;
  cfg.random_resume_probability = 1.0;
  core::ThrottleGovernor gov(cfg, Rng(1));

  gov.decide(0.0, false, true, false, {0.0, 0.0});  // Pause
  // Anti-starvation resume after patience.
  core::ThrottleAction action = core::ThrottleAction::None;
  double t = 1.0;
  while (action != core::ThrottleAction::Resume && t < 20.0) {
    action = gov.decide(t, true, false, false, {0.0, 0.0});
    t += 1.0;
  }
  ASSERT_EQ(action, core::ThrottleAction::Resume);
  // Within the grace window a *predicted* violation must not re-pause
  // (the probe deserves a chance to observe reality)...
  EXPECT_EQ(gov.decide(t + 1.0, false, true, false, {0.0, 0.0}),
            core::ThrottleAction::None);
  // ...but an *observed* violation ends the probe immediately.
  EXPECT_EQ(gov.decide(t + 2.0, false, false, true, {0.0, 0.0}),
            core::ThrottleAction::Pause);
}

TEST(GovernorProbation, PredictionCountsAfterProbation) {
  core::GovernorConfig cfg;
  cfg.resume_grace_s = 1.0;
  cfg.starvation_patience_s = 2.0;
  cfg.random_resume_probability = 1.0;
  core::ThrottleGovernor gov(cfg, Rng(1));
  gov.decide(0.0, false, true, false, {0.0, 0.0});  // Pause
  core::ThrottleAction action = core::ThrottleAction::None;
  double t = 1.0;
  while (action != core::ThrottleAction::Resume && t < 20.0) {
    action = gov.decide(t, true, false, false, {0.0, 0.0});
    t += 1.0;
  }
  // Past the probation window, predictions pause again.
  EXPECT_EQ(gov.decide(t + 5.0, false, true, false, {0.0, 0.0}),
            core::ThrottleAction::Pause);
}

}  // namespace
}  // namespace stayaway
