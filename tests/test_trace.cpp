// Unit tests for src/trace: trace container and diurnal generator.
#include <gtest/gtest.h>

#include "trace/diurnal.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace stayaway::trace {
namespace {

TEST(Trace, InterpolationAndClamping) {
  Trace t({0.0, 10.0, 20.0}, 1.0);
  EXPECT_DOUBLE_EQ(t.at(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(t.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.at(0.5), 5.0);
  EXPECT_DOUBLE_EQ(t.at(1.5), 15.0);
  EXPECT_DOUBLE_EQ(t.at(99.0), 20.0);
  EXPECT_DOUBLE_EQ(t.duration(), 2.0);
}

TEST(Trace, Statistics) {
  Trace t({2.0, 4.0, 6.0}, 0.5);
  EXPECT_DOUBLE_EQ(t.min(), 2.0);
  EXPECT_DOUBLE_EQ(t.max(), 6.0);
  EXPECT_DOUBLE_EQ(t.mean(), 4.0);
}

TEST(Trace, NormalizedAt) {
  Trace t({2.0, 4.0, 6.0}, 1.0);
  EXPECT_DOUBLE_EQ(t.normalized_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.normalized_at(1.0), 0.5);
  EXPECT_DOUBLE_EQ(t.normalized_at(2.0), 1.0);
}

TEST(Trace, NormalizedAtConstantTraceIsZero) {
  Trace t({5.0, 5.0}, 1.0);
  EXPECT_DOUBLE_EQ(t.normalized_at(0.5), 0.0);
}

TEST(Trace, InvalidConstruction) {
  EXPECT_THROW(Trace({}, 1.0), PreconditionError);
  EXPECT_THROW(Trace({1.0}, 0.0), PreconditionError);
}

TEST(Diurnal, HasDailyCycle) {
  DiurnalSpec spec;
  spec.days = 2.0;
  spec.noise_fraction = 0.0;
  spec.weekly_amplitude = 0.0;
  Trace t = generate_diurnal(spec);
  // Peak hour minus trough should be roughly 2 * daily amplitude.
  double swing = (t.max() - t.min()) / spec.base;
  EXPECT_GT(swing, spec.daily_amplitude);
  // 24h periodicity: value at t and t+24h nearly equal.
  EXPECT_NEAR(t.at(10.0 * 3600.0), t.at(34.0 * 3600.0), 0.05 * spec.base);
}

TEST(Diurnal, PeakNearConfiguredHour) {
  DiurnalSpec spec;
  spec.days = 1.0;
  spec.noise_fraction = 0.0;
  spec.second_harmonic = 0.0;
  spec.weekly_amplitude = 0.0;
  spec.peak_hour = 20.0;
  Trace t = generate_diurnal(spec);
  std::size_t argmax = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t.samples()[i] > t.samples()[argmax]) argmax = i;
  }
  double peak_hour = static_cast<double>(argmax) * spec.sample_interval_s / 3600.0;
  EXPECT_NEAR(peak_hour, 20.0, 1.5);
}

TEST(Diurnal, NeverBelowFloor) {
  DiurnalSpec spec;
  spec.daily_amplitude = 0.9;
  spec.noise_fraction = 0.3;
  Trace t = generate_diurnal(spec);
  EXPECT_GE(t.min(), 0.05 * spec.base - 1e-9);
}

TEST(Diurnal, DeterministicPerSeed) {
  DiurnalSpec spec;
  Trace a = generate_diurnal(spec);
  Trace b = generate_diurnal(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples()[i], b.samples()[i]);
  }
  spec.seed = 99;
  Trace c = generate_diurnal(spec);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.samples()[i] != c.samples()[i]) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Diurnal, SampleCountMatchesSpec) {
  DiurnalSpec spec;
  spec.days = 4.0;
  spec.sample_interval_s = 3600.0;
  Trace t = generate_diurnal(spec);
  EXPECT_EQ(t.size(), 97u);  // 4 * 24 + 1
}

TEST(Diurnal, InvalidSpecRejected) {
  DiurnalSpec spec;
  spec.base = 0.0;
  EXPECT_THROW(generate_diurnal(spec), PreconditionError);
}

}  // namespace
}  // namespace stayaway::trace
