// Fault-injection subsystem (sim/faults): plan parsing, every fault kind,
// and — the property the whole framework hangs on — determinism: the same
// plan and seed must reproduce the same fault stream.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "sim/faults.hpp"
#include "util/check.hpp"

namespace stayaway::sim {
namespace {

FaultSpec spec_of(FaultKind kind, double p = 1.0, double start = 0.0,
                  double end = std::numeric_limits<double>::infinity()) {
  FaultSpec s;
  s.kind = kind;
  s.probability = p;
  s.start_s = start;
  s.end_s = end;
  return s;
}

FaultPlan plan_of(std::vector<FaultSpec> faults, std::uint64_t seed = 7) {
  FaultPlan plan;
  plan.seed = seed;
  plan.faults = std::move(faults);
  return plan;
}

TEST(FaultKindNames, RoundTrip) {
  for (FaultKind kind :
       {FaultKind::SensorDropout, FaultKind::StuckAt, FaultKind::Spike,
        FaultKind::NonFinite, FaultKind::StaleSample, FaultKind::QosBlind,
        FaultKind::PauseFail, FaultKind::ResumeFail}) {
    EXPECT_EQ(fault_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(fault_kind_from_string("cosmic-ray"), PreconditionError);
}

TEST(FaultSpecParse, FullLine) {
  FaultSpec s = parse_fault_spec("spike start=10 end=20 p=0.5 mag=4 dim=2",
                                 {"fault plan", 3});
  EXPECT_EQ(s.kind, FaultKind::Spike);
  EXPECT_DOUBLE_EQ(s.start_s, 10.0);
  EXPECT_DOUBLE_EQ(s.end_s, 20.0);
  EXPECT_DOUBLE_EQ(s.probability, 0.5);
  EXPECT_DOUBLE_EQ(s.magnitude, 4.0);
  EXPECT_EQ(s.dimension, 2);
  EXPECT_TRUE(s.active(10.0));
  EXPECT_TRUE(s.active(19.99));
  EXPECT_FALSE(s.active(20.0));  // half-open window
  EXPECT_FALSE(s.active(9.99));
}

TEST(FaultSpecParse, ErrorsNameTheLine) {
  struct Case {
    const char* text;
    const char* needle;
  };
  for (const Case& c : {
           Case{"cosmic-ray", "unknown fault kind"},
           Case{"spike p=1.5", "p must be in [0,1]"},
           Case{"spike start=20 end=10", "end > start"},
           Case{"spike mag=-1", "mag must be finite and positive"},
           Case{"spike dim=-2", "dim must be >= 0"},
           Case{"spike bogus=1", "unknown fault key"},
           Case{"spike p", "expected key=value"},
           Case{"spike p=abc", "expected a number"},
           Case{"spike dim=2.7", "expected an integer"},
           Case{"spike dim=1e30", "expected an integer"},
           Case{"spike dim=nan", "expected an integer"},
       }) {
    try {
      parse_fault_spec(c.text, {"fault plan", 42});
      FAIL() << "no error for: " << c.text;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("line 42"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultPlanParse, FullDocument) {
  std::istringstream in(R"(# comment
seed  = 9
fault = sensor-dropout start=20 end=60 p=0.2
fault = qos-blind start=30 end=45   # trailing comment
fault = pause-fail p=0.5
)");
  FaultPlan plan = parse_fault_plan(in);
  EXPECT_EQ(plan.seed, 9u);
  ASSERT_EQ(plan.faults.size(), 3u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::SensorDropout);
  EXPECT_EQ(plan.faults[1].kind, FaultKind::QosBlind);
  EXPECT_EQ(plan.faults[2].kind, FaultKind::PauseFail);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanParse, RejectsUnknownAndDuplicateKeys) {
  std::istringstream unknown("frequency = 3\n");
  EXPECT_THROW(parse_fault_plan(unknown), PreconditionError);
  std::istringstream dup("seed = 1\nseed = 2\n");
  EXPECT_THROW(parse_fault_plan(dup), PreconditionError);
  std::istringstream noeq("seed 1\n");
  EXPECT_THROW(parse_fault_plan(noeq), PreconditionError);
  std::istringstream negative("seed = -3\n");
  EXPECT_THROW(parse_fault_plan(negative), PreconditionError);
}

TEST(FaultInjector, RejectsInvalidProgrammaticPlans) {
  EXPECT_THROW(
      FaultInjector(plan_of({spec_of(FaultKind::Spike, /*p=*/2.0)})),
      PreconditionError);
}

TEST(FaultInjector, DropoutYieldsNaN) {
  FaultInjector inj(plan_of({spec_of(FaultKind::SensorDropout)}));
  std::vector<double> v{1.0, 2.0, 3.0};
  SensorFaultReport r = inj.corrupt_sample(0.0, v);
  EXPECT_EQ(r.dropped, 3u);
  for (double x : v) EXPECT_TRUE(std::isnan(x));
  EXPECT_EQ(inj.faulted_samples(), 1u);
}

TEST(FaultInjector, NonFiniteYieldsInfinity) {
  FaultInjector inj(plan_of({spec_of(FaultKind::NonFinite)}));
  std::vector<double> v{1.0, 2.0};
  SensorFaultReport r = inj.corrupt_sample(0.0, v);
  EXPECT_EQ(r.corrupted, 2u);
  for (double x : v) EXPECT_TRUE(std::isinf(x));
}

TEST(FaultInjector, SpikeMultipliesTargetDimensionOnly) {
  FaultSpec s = spec_of(FaultKind::Spike);
  s.magnitude = 8.0;
  s.dimension = 1;
  FaultInjector inj(plan_of({s}));
  std::vector<double> v{1.0, 2.0, 3.0};
  SensorFaultReport r = inj.corrupt_sample(0.0, v);
  EXPECT_EQ(r.corrupted, 1u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 16.0);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(FaultInjector, StuckAtReplaysPreviousRawReading) {
  // Stuck-at replays the sensor's previous *pre-fault* value, so the
  // first (no-history) sample passes through untouched.
  FaultInjector inj(plan_of({spec_of(FaultKind::StuckAt)}));
  std::vector<double> first{1.0, 2.0};
  SensorFaultReport r0 = inj.corrupt_sample(0.0, first);
  EXPECT_FALSE(r0.any());
  std::vector<double> second{10.0, 20.0};
  SensorFaultReport r1 = inj.corrupt_sample(1.0, second);
  EXPECT_EQ(r1.corrupted, 2u);
  EXPECT_DOUBLE_EQ(second[0], 1.0);
  EXPECT_DOUBLE_EQ(second[1], 2.0);
}

TEST(FaultInjector, StaleSampleReplaysWholeVector) {
  FaultInjector inj(plan_of({spec_of(FaultKind::StaleSample)}));
  std::vector<double> first{1.0, 2.0};
  inj.corrupt_sample(0.0, first);
  std::vector<double> second{10.0, 20.0};
  SensorFaultReport r = inj.corrupt_sample(1.0, second);
  EXPECT_TRUE(r.stale);
  EXPECT_DOUBLE_EQ(second[0], 1.0);
  EXPECT_DOUBLE_EQ(second[1], 2.0);
}

TEST(FaultInjector, WindowGatesAllFaults) {
  FaultInjector inj(
      plan_of({spec_of(FaultKind::SensorDropout, 1.0, 10.0, 20.0),
               spec_of(FaultKind::QosBlind, 1.0, 10.0, 20.0),
               spec_of(FaultKind::PauseFail, 1.0, 10.0, 20.0)}));
  std::vector<double> v{1.0};
  EXPECT_FALSE(inj.corrupt_sample(5.0, v).any());
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_FALSE(inj.qos_blind(5.0));
  EXPECT_TRUE(inj.pause_delivered(5.0));
  EXPECT_TRUE(inj.corrupt_sample(15.0, v).any());
  EXPECT_TRUE(inj.qos_blind(15.0));
  EXPECT_FALSE(inj.pause_delivered(15.0));
  EXPECT_EQ(inj.dropped_commands(), 1u);
}

TEST(FaultInjector, ResumeAndPauseChannelsAreIndependent) {
  FaultInjector inj(plan_of({spec_of(FaultKind::ResumeFail)}));
  EXPECT_TRUE(inj.pause_delivered(0.0));
  EXPECT_FALSE(inj.resume_delivered(0.0));
}

TEST(FaultInjector, IdenticalPlansReproduceIdenticalStreams) {
  auto stream = [](std::uint64_t seed) {
    FaultInjector inj(plan_of(
        {spec_of(FaultKind::SensorDropout, 0.3),
         spec_of(FaultKind::QosBlind, 0.4), spec_of(FaultKind::PauseFail, 0.5)},
        seed));
    std::vector<double> out;
    for (int t = 0; t < 50; ++t) {
      std::vector<double> v{1.0, 2.0, 3.0, 4.0};
      inj.corrupt_sample(t, v);
      out.insert(out.end(), v.begin(), v.end());
      out.push_back(inj.qos_blind(t) ? 1.0 : 0.0);
      out.push_back(inj.pause_delivered(t) ? 1.0 : 0.0);
    }
    return out;
  };
  std::vector<double> a = stream(7);
  std::vector<double> b = stream(7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // NaNs (dropout) compare by bit-class, not ==.
    if (std::isnan(a[i])) {
      EXPECT_TRUE(std::isnan(b[i])) << "index " << i;
    } else {
      EXPECT_DOUBLE_EQ(a[i], b[i]) << "index " << i;
    }
  }
  // And a different seed must not reproduce the same stream.
  std::vector<double> c = stream(8);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) != std::isnan(c[i])) differs = true;
    if (!std::isnan(a[i]) && !std::isnan(c[i]) && a[i] != c[i]) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, EmptyPlanIsInert) {
  FaultInjector inj(plan_of({}));
  std::vector<double> v{1.0, 2.0};
  EXPECT_FALSE(inj.corrupt_sample(0.0, v).any());
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
  EXPECT_FALSE(inj.qos_blind(0.0));
  EXPECT_TRUE(inj.pause_delivered(0.0));
  EXPECT_TRUE(inj.resume_delivered(0.0));
  EXPECT_EQ(inj.faulted_samples(), 0u);
  EXPECT_EQ(inj.dropped_commands(), 0u);
}

}  // namespace
}  // namespace stayaway::sim
