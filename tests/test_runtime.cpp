// Integration tests for HostPipeline: the full Mapping -> Prediction ->
// Action loop against the simulated host.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/cpubomb.hpp"
#include "apps/vlc_stream.hpp"
#include "core/pipeline.hpp"
#include "harness/scenarios.hpp"
#include "obs/events.hpp"
#include "obs/observer.hpp"
#include "sim/faults.hpp"
#include "util/check.hpp"

namespace stayaway::core {
namespace {

struct Rig {
  sim::SimHost host;
  const sim::QosProbe* probe = nullptr;
  sim::VmId sensitive = 0;
  sim::VmId batch = 0;

  explicit Rig(double batch_start = 5.0)
      : host(harness::paper_host(), 0.1) {
    auto vlc = std::make_unique<apps::VlcStream>();
    probe = vlc.get();
    sensitive = host.add_vm("vlc", sim::VmKind::Sensitive, std::move(vlc), 0.0);
    batch = host.add_vm("cpubomb", sim::VmKind::Batch,
                        std::make_unique<apps::CpuBomb>(), batch_start);
  }
};

StayAwayConfig test_config() {
  StayAwayConfig cfg;
  cfg.period_s = 1.0;
  cfg.seed = 42;
  cfg.sampler.noise_fraction = 0.005;  // unified entry point (§ config)
  return cfg;
}

void run_periods(Rig& rig, HostPipeline& rt, std::size_t periods) {
  for (std::size_t p = 0; p < periods; ++p) {
    rig.host.run(10);  // 10 ticks of 0.1 s = one 1 s period
    rt.on_period();
  }
}

TEST(Runtime, LearnsStatesAndRecords) {
  Rig rig;
  HostPipeline rt(rig.host, *rig.probe, test_config());
  run_periods(rig, rt, 20);
  EXPECT_EQ(rt.records().size(), 20u);
  const StayAwayMapper& mapper = *rt.stay_away_mapper();
  EXPECT_GT(mapper.representatives().size(), 1u);
  EXPECT_EQ(mapper.space().size(), mapper.representatives().size());
  // Layout: sensitive + aggregated batch, 4 metrics each.
  EXPECT_EQ(mapper.layout().dimension(), 8u);
}

TEST(Runtime, MarksViolationStates) {
  Rig rig(/*batch_start=*/3.0);
  HostPipeline rt(rig.host, *rig.probe, test_config());
  run_periods(rig, rt, 15);
  // CPUBomb against full-rate VLC must violate at least once before the
  // controller gets on top of it.
  EXPECT_GT(rt.stay_away_mapper()->space().violation_count(), 0u);
}

TEST(Runtime, ThrottlesBatchUnderContention) {
  Rig rig(/*batch_start=*/3.0);
  HostPipeline rt(rig.host, *rig.probe, test_config());
  run_periods(rig, rt, 30);
  EXPECT_GT(rt.governor_actuator()->governor().pauses(), 0u);
  // Batch must have spent real time paused.
  EXPECT_GT(rig.host.vm(rig.batch).paused_time(), 1.0);
}

TEST(Runtime, ProtectsQosComparedToNoPolicy) {
  // With the runtime active, violating periods must be rarer than without.
  std::size_t with_violations = 0;
  std::size_t without_violations = 0;
  {
    Rig rig(3.0);
    HostPipeline rt(rig.host, *rig.probe, test_config());
    for (int p = 0; p < 60; ++p) {
      rig.host.run(10);
      rt.on_period();
      if (rig.probe->violated()) ++with_violations;
    }
  }
  {
    Rig rig(3.0);
    for (int p = 0; p < 60; ++p) {
      rig.host.run(10);
      if (rig.probe->violated()) ++without_violations;
    }
  }
  EXPECT_LT(with_violations, without_violations / 2);
  EXPECT_GT(without_violations, 30u);  // CPUBomb makes VLC violate steadily
}

TEST(Runtime, PassiveModeNeverActs) {
  Rig rig(3.0);
  StayAwayConfig cfg = test_config();
  cfg.actions_enabled = false;
  HostPipeline rt(rig.host, *rig.probe, cfg);
  run_periods(rig, rt, 30);
  EXPECT_FALSE(rt.governor_actuator()->batch_paused());
  EXPECT_DOUBLE_EQ(rig.host.vm(rig.batch).paused_time(), 0.0);
  for (const auto& rec : rt.records()) {
    EXPECT_EQ(rec.action, ThrottleAction::None);
  }
  // It still learns and predicts.
  EXPECT_GT(rt.stay_away_mapper()->space().violation_count(), 0u);
  EXPECT_GT(rt.trajectory_forecaster()->tally().total(), 0u);
}

TEST(Runtime, RecordsCarryModeTransitions) {
  Rig rig(/*batch_start=*/5.0);
  StayAwayConfig cfg = test_config();
  cfg.actions_enabled = false;
  HostPipeline rt(rig.host, *rig.probe, cfg);
  run_periods(rig, rt, 12);
  // Early periods: sensitive only; later: co-located.
  EXPECT_EQ(rt.records().front().mode, monitor::ExecutionMode::SensitiveOnly);
  EXPECT_EQ(rt.records().back().mode, monitor::ExecutionMode::CoLocated);
}

TEST(Runtime, TemplateExportRoundTripsThroughSeed) {
  StateTemplate exported;
  {
    Rig rig(3.0);
    HostPipeline rt(rig.host, *rig.probe, test_config());
    run_periods(rig, rt, 25);
    const StayAwayMapper& mapper = *rt.stay_away_mapper();
    exported = mapper.export_template("vlc-stream");
    EXPECT_EQ(exported.entries.size(), mapper.representatives().size());
    EXPECT_EQ(exported.violation_count(), mapper.space().violation_count());
    EXPECT_GT(exported.violation_count(), 0u);
  }
  // Seed a fresh pipeline with the template: it starts pre-populated.
  Rig rig2(3.0);
  HostPipeline rt2(rig2.host, *rig2.probe, test_config());
  StayAwayMapper& mapper2 = *rt2.stay_away_mapper();
  mapper2.seed_template(exported);
  EXPECT_EQ(mapper2.representatives().size(), exported.entries.size());
  EXPECT_EQ(mapper2.space().violation_count(), exported.violation_count());
}

TEST(Runtime, SeedAfterStartRejected) {
  Rig rig;
  HostPipeline rt(rig.host, *rig.probe, test_config());
  run_periods(rig, rt, 1);
  StateTemplate t;
  t.entries.push_back({std::vector<double>(8, 0.5), StateLabel::Safe});
  EXPECT_THROW(rt.stay_away_mapper()->seed_template(t), PreconditionError);
}

TEST(Runtime, SeedDimensionMismatchRejected) {
  Rig rig;
  HostPipeline rt(rig.host, *rig.probe, test_config());
  StateTemplate t;
  t.entries.push_back({{0.5, 0.5}, StateLabel::Safe});  // wrong dimension
  EXPECT_THROW(rt.stay_away_mapper()->seed_template(t), PreconditionError);
}

TEST(Runtime, BetaAdaptsOverLongRun) {
  Rig rig(3.0);
  HostPipeline rt(rig.host, *rig.probe, test_config());
  run_periods(rig, rt, 120);
  // CPUBomb never phase-changes, so resumes mostly fail and beta grows.
  const ThrottleGovernor& governor = rt.governor_actuator()->governor();
  EXPECT_GE(governor.beta(), rt.config().governor.beta_initial);
  EXPECT_GT(governor.resumes(), 0u);
}

TEST(Runtime, StressStaysLowWithTwoEntities) {
  // §5: with one sensitive + one logical batch VM, 2-D is an adequate
  // representation and stress stays low.
  Rig rig(3.0);
  HostPipeline rt(rig.host, *rig.probe, test_config());
  run_periods(rig, rt, 40);
  EXPECT_LT(rt.stay_away_mapper()->embedder().stress(), 0.15);
}

TEST(Runtime, InvalidPeriodRejected) {
  Rig rig;
  StayAwayConfig cfg = test_config();
  cfg.period_s = 0.0;
  EXPECT_THROW(HostPipeline(rig.host, *rig.probe, cfg),
               PreconditionError);
}

TEST(Runtime, UnifiedSamplerConfigDrivesTheLoop) {
  // config.sampler is the single entry point for sampling options (the
  // positional shim and the SamplerOptions alias are gone): two runtimes
  // built from equal configs replay identically, and changing only
  // config.sampler demonstrably changes the loop.
  Rig rig_a(3.0);
  HostPipeline rt_a(rig_a.host, *rig_a.probe, test_config());
  run_periods(rig_a, rt_a, 25);

  Rig rig_b(3.0);
  HostPipeline rt_b(rig_b.host, *rig_b.probe, test_config());
  run_periods(rig_b, rt_b, 25);

  ASSERT_EQ(rt_a.records().size(), rt_b.records().size());
  EXPECT_EQ(rt_a.records(), rt_b.records());

  StayAwayConfig noisy = test_config();
  noisy.sampler.noise_fraction = 0.2;
  Rig rig_c(3.0);
  HostPipeline rt_c(rig_c.host, *rig_c.probe, noisy);
  run_periods(rig_c, rt_c, 25);
  EXPECT_NE(rt_a.records(), rt_c.records());
}

TEST(Runtime, AccuracyIsZeroBeforeAnyPrediction) {
  PredictionTally tally;
  EXPECT_EQ(tally.total(), 0u);
  EXPECT_DOUBLE_EQ(tally.accuracy(), 0.0);
  // And a freshly constructed runtime reports the same, not NaN.
  Rig rig;
  HostPipeline rt(rig.host, *rig.probe, test_config());
  EXPECT_DOUBLE_EQ(rt.trajectory_forecaster()->tally().accuracy(), 0.0);
}

TEST(Runtime, ObserverIsPassive) {
  // The control loop with full observability attached must emit a
  // byte-identical PeriodRecord sequence to the bare loop.
  Rig rig_plain(3.0);
  HostPipeline rt_plain(rig_plain.host, *rig_plain.probe, test_config());
  run_periods(rig_plain, rt_plain, 40);

  std::ostringstream events;
  obs::JsonlSink sink(events);
  obs::Observer observer(&sink);
  Rig rig_obs(3.0);
  HostPipeline rt_obs(rig_obs.host, *rig_obs.probe, test_config());
  rt_obs.set_observer(&observer);
  run_periods(rig_obs, rt_obs, 40);

  ASSERT_EQ(rt_plain.records().size(), rt_obs.records().size());
  EXPECT_EQ(rt_plain.records(), rt_obs.records());
  EXPECT_GT(sink.emitted(), 0u);
}

TEST(Runtime, ObserverCoversAllLoopPhases) {
  std::ostringstream events;
  obs::JsonlSink sink(events);
  obs::Observer observer(&sink);
  Rig rig(3.0);
  HostPipeline rt(rig.host, *rig.probe, test_config());
  rt.set_observer(&observer);
  run_periods(rig, rt, 30);
  observer.flush();

  // Every phase span shows up in the stream and in the histograms.
  std::istringstream in(events.str());
  std::vector<obs::Event> parsed = obs::parse_jsonl(in);
  std::size_t periods = 0;
  std::set<std::string> span_names;
  for (const auto& e : parsed) {
    if (e.type == "period") ++periods;
    if (e.type == "span") span_names.insert(e.find("name")->as_string());
  }
  EXPECT_EQ(periods, 30u);
  for (const char* phase : {"period", "sample", "embed", "predict", "act"}) {
    EXPECT_TRUE(span_names.count(phase) == 1)
        << "missing span for phase " << phase;
    obs::MetricsSnapshot snap = observer.metrics().snapshot();
    bool found = false;
    for (const auto& h : snap.histograms) {
      if (h.name == std::string("span.") + phase + ".us") {
        found = h.count == 30u;  // one observation per period per phase
      }
    }
    EXPECT_TRUE(found) << "missing histogram for phase " << phase;
  }
  // Loop counters track the record series.
  obs::MetricsSnapshot snap = observer.metrics().snapshot();
  std::uint64_t loop_periods = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name == "loop.periods") loop_periods = v;
  }
  EXPECT_EQ(loop_periods, 30u);
  // Governor activity surfaced as pause/resume events with reasons.
  if (rt.governor_actuator()->governor().pauses() > 0) {
    bool saw_pause = false;
    for (const auto& e : parsed) {
      if (e.type == "pause") {
        saw_pause = true;
        EXPECT_NE(e.find("reason"), nullptr);
      }
    }
    EXPECT_TRUE(saw_pause);
  }
}

sim::FaultSpec fault_of(sim::FaultKind kind, double start, double end,
                        double p = 1.0) {
  sim::FaultSpec s;
  s.kind = kind;
  s.start_s = start;
  s.end_s = end;
  s.probability = p;
  return s;
}

TEST(RuntimeFaults, EmptyPlanKeepsRecordsByteIdentical) {
  // The golden no-fault guarantee (DESIGN.md §12): installing a fault
  // plan with no faults must leave the PeriodRecord sequence
  // byte-identical to the plain loop — the whole validate/quarantine/
  // degradation machinery must be a pure pass-through when healthy.
  Rig rig_plain(3.0);
  HostPipeline rt_plain(rig_plain.host, *rig_plain.probe, test_config());
  run_periods(rig_plain, rt_plain, 40);

  Rig rig_faulted(3.0);
  HostPipeline rt_faulted(rig_faulted.host, *rig_faulted.probe,
                             test_config());
  sim::FaultPlan empty;
  empty.seed = 99;  // a different fault seed must not matter either
  rt_faulted.install_faults(empty);
  run_periods(rig_faulted, rt_faulted, 40);

  ASSERT_EQ(rt_plain.records().size(), rt_faulted.records().size());
  EXPECT_EQ(rt_plain.records(), rt_faulted.records());
  EXPECT_EQ(rt_faulted.stay_away_mapper()->readings_quarantined(), 0u);
  EXPECT_EQ(rt_faulted.degradation(), DegradationState::Normal);
}

TEST(RuntimeFaults, NonFiniteReadingsNeverReachTheMap) {
  // Every sample corrupted to +inf for the whole run: the quarantine
  // must impute, and nothing non-finite may leak into the embedding or
  // the representative set — in any build mode, hence explicit EXPECTs.
  Rig rig(3.0);
  HostPipeline rt(rig.host, *rig.probe, test_config());
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.faults.push_back(fault_of(sim::FaultKind::NonFinite, 0.0,
                                 std::numeric_limits<double>::infinity()));
  rt.install_faults(plan);
  run_periods(rig, rt, 20);

  EXPECT_GT(rt.stay_away_mapper()->readings_quarantined(), 0u);
  for (const auto& rec : rt.records()) {
    EXPECT_GT(rec.quarantined_dims, 0u) << "at t=" << rec.time;
    EXPECT_TRUE(std::isfinite(rec.state.x) && std::isfinite(rec.state.y))
        << "at t=" << rec.time;
    EXPECT_NE(rec.degradation, DegradationState::Normal)
        << "imputed inputs must degrade the loop, t=" << rec.time;
  }
  const monitor::RepresentativeSet& reps =
      rt.stay_away_mapper()->representatives();
  for (std::size_t i = 0; i < reps.size(); ++i) {
    for (double v : reps.representative(i)) {
      EXPECT_TRUE(std::isfinite(v)) << "representative " << i;
    }
  }
}

TEST(RuntimeFaults, QosBlindnessEscalatesToFailsafeAndRecovers) {
  // Blind probe for 15 s: after qos_blind_failsafe_periods the runtime
  // must pause every batch VM, then step back down to Normal (resuming
  // the batch) once telemetry returns.
  Rig rig(3.0);
  HostPipeline rt(rig.host, *rig.probe, test_config());
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.faults.push_back(fault_of(sim::FaultKind::QosBlind, 5.0, 20.0));
  rt.install_faults(plan);
  run_periods(rig, rt, 35);

  bool saw_failsafe_pause = false;
  for (const auto& rec : rt.records()) {
    if (rec.time >= 5.0 && rec.time < 20.0) {
      EXPECT_FALSE(rec.qos_visible) << "at t=" << rec.time;
      EXPECT_FALSE(rec.violation_observed) << "blind probe cannot observe";
    } else {
      EXPECT_TRUE(rec.qos_visible) << "at t=" << rec.time;
    }
    if (rec.degradation == DegradationState::Failsafe) {
      EXPECT_TRUE(rec.batch_paused_after)
          << "failsafe must hold the batch paused, t=" << rec.time;
      saw_failsafe_pause = true;
    }
  }
  EXPECT_TRUE(saw_failsafe_pause);
  // Hysteresis: recovery needs recovery_periods clean periods per level,
  // so by the end of the run the loop must be back to Normal.
  EXPECT_EQ(rt.records().back().degradation, DegradationState::Normal);
  EXPECT_EQ(rt.degradation(), DegradationState::Normal);
}

TEST(RuntimeFaults, DroppedPauseCommandsAreRetriedUntilDelivered) {
  // Pause channel dead until t=10, QoS blind throughout: the failsafe
  // pause fails, the ledger retries with backoff, and a retry landing
  // after the fault window must finally take effect.
  Rig rig(/*batch_start=*/0.0);
  HostPipeline rt(rig.host, *rig.probe, test_config());
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.faults.push_back(fault_of(sim::FaultKind::QosBlind, 3.0, 1000.0));
  plan.faults.push_back(fault_of(sim::FaultKind::PauseFail, 0.0, 10.0));
  rt.install_faults(plan);
  run_periods(rig, rt, 30);

  EXPECT_GT(rt.governor_actuator()->actuation_retries(), 0u);
  EXPECT_EQ(rt.governor_actuator()->actuation_abandoned(), 0u);
  bool saw_pending = false;
  for (const auto& rec : rt.records()) {
    if (rec.actuation_pending) saw_pending = true;
  }
  EXPECT_TRUE(saw_pending);
  // Reconciliation won: the batch really is paused by the end.
  EXPECT_TRUE(rt.governor_actuator()->batch_paused());
  EXPECT_GT(rig.host.vm(rig.batch).paused_time(), 1.0);
}

TEST(RuntimeFaults, UndeliverableCommandsAreAbandoned) {
  // Pause channel dead for the whole run: the bounded retry budget must
  // run out rather than retry forever.
  Rig rig(/*batch_start=*/0.0);
  HostPipeline rt(rig.host, *rig.probe, test_config());
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.faults.push_back(fault_of(sim::FaultKind::QosBlind, 3.0, 1000.0));
  plan.faults.push_back(fault_of(sim::FaultKind::PauseFail, 0.0, 1000.0));
  rt.install_faults(plan);
  run_periods(rig, rt, 30);

  EXPECT_GT(rt.governor_actuator()->actuation_abandoned(), 0u);
  EXPECT_DOUBLE_EQ(rig.host.vm(rig.batch).paused_time(), 0.0);
}

TEST(RuntimeFaults, InstallAfterStartRejected) {
  Rig rig;
  HostPipeline rt(rig.host, *rig.probe, test_config());
  run_periods(rig, rt, 1);
  EXPECT_THROW(rt.install_faults(sim::FaultPlan{}), PreconditionError);
}

TEST(RuntimeFaults, FaultedRunsAreDeterministic) {
  auto run = [] {
    Rig rig(3.0);
    HostPipeline rt(rig.host, *rig.probe, test_config());
    sim::FaultPlan plan;
    plan.seed = 11;
    plan.faults.push_back(
        fault_of(sim::FaultKind::SensorDropout, 5.0, 25.0, 0.3));
    plan.faults.push_back(fault_of(sim::FaultKind::QosBlind, 10.0, 18.0));
    plan.faults.push_back(fault_of(sim::FaultKind::PauseFail, 0.0, 30.0, 0.5));
    rt.install_faults(plan);
    run_periods(rig, rt, 40);
    return rt.records();
  };
  std::vector<PeriodRecord> a = run();
  std::vector<PeriodRecord> b = run();
  EXPECT_EQ(a, b);
}

TEST(RuntimeFaults, ObserverStaysPassiveUnderFaults) {
  // The observer-equivalence guarantee must survive the degraded path:
  // same faulted run with and without observability attached.
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.faults.push_back(
      fault_of(sim::FaultKind::SensorDropout, 5.0, 25.0, 0.3));
  plan.faults.push_back(fault_of(sim::FaultKind::QosBlind, 10.0, 16.0));

  Rig rig_plain(3.0);
  HostPipeline rt_plain(rig_plain.host, *rig_plain.probe, test_config());
  rt_plain.install_faults(plan);
  run_periods(rig_plain, rt_plain, 30);

  std::ostringstream events;
  obs::JsonlSink sink(events);
  obs::Observer observer(&sink);
  Rig rig_obs(3.0);
  HostPipeline rt_obs(rig_obs.host, *rig_obs.probe, test_config());
  rt_obs.set_observer(&observer);
  rt_obs.install_faults(plan);
  run_periods(rig_obs, rt_obs, 30);

  EXPECT_EQ(rt_plain.records(), rt_obs.records());
  // The degradation episode shows up in the event stream.
  std::istringstream in(events.str());
  std::vector<obs::Event> parsed = obs::parse_jsonl(in);
  bool saw_degradation_event = false;
  for (const auto& e : parsed) {
    if (e.type == "degradation") saw_degradation_event = true;
  }
  EXPECT_TRUE(saw_degradation_event);
}

}  // namespace
}  // namespace stayaway::core
