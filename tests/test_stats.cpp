// Unit tests for src/stats: online stats, histogram, sampler, circular
// stats, Rayleigh radius, descriptive stats, Zipf, VAR(1).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "stats/circular.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"
#include "stats/online.hpp"
#include "stats/rayleigh.hpp"
#include "stats/sampler.hpp"
#include "stats/var1.hpp"
#include "stats/zipf.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stayaway::stats {
namespace {

// --------------------------------------------------------------- online
TEST(OnlineMinMax, TracksBounds) {
  OnlineMinMax mm;
  EXPECT_TRUE(mm.empty());
  mm.observe(3.0);
  mm.observe(-1.0);
  mm.observe(2.0);
  EXPECT_DOUBLE_EQ(mm.min(), -1.0);
  EXPECT_DOUBLE_EQ(mm.max(), 3.0);
  EXPECT_DOUBLE_EQ(mm.range(), 4.0);
  EXPECT_EQ(mm.count(), 3u);
}

TEST(OnlineMinMax, EmptyQueriesThrow) {
  OnlineMinMax mm;
  EXPECT_THROW(mm.min(), PreconditionError);
  EXPECT_THROW(mm.max(), PreconditionError);
  EXPECT_THROW(mm.range(), PreconditionError);
}

TEST(OnlineMoments, MeanAndVariance) {
  OnlineMoments m;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.observe(v);
  EXPECT_NEAR(m.mean(), 5.0, 1e-12);
  // Sample variance of this classic set is 32/7.
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(m.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(OnlineMoments, SingleObservationHasZeroVariance) {
  OnlineMoments m;
  m.observe(42.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
  EXPECT_DOUBLE_EQ(m.mean(), 42.0);
}

// ------------------------------------------------------------ histogram
TEST(Histogram, BinningAndMass) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(5.6);
  h.add(9.9);
  EXPECT_DOUBLE_EQ(h.total_weight(), 4.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(5), 2.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.mass(5), 0.5);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(5.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(3), 1.0);
}

TEST(Histogram, DensityIntegratesToOne) {
  Histogram h(0.0, 2.0, 8);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) h.add(rng.uniform(0.0, 2.0));
  double integral = 0.0;
  for (std::size_t b = 0; b < h.bins(); ++b) {
    integral += h.density(b) * h.bin_width();
  }
  EXPECT_NEAR(integral, 1.0, 1e-12);
}

TEST(Histogram, QuantileInterpolation) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(static_cast<double>(i) + 0.5);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1e-12);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
  EXPECT_NEAR(h.quantile(1.0), 10.0, 1e-12);
}

TEST(Histogram, QuantileOfEmptyThrows) {
  Histogram h(0.0, 1.0, 2);
  EXPECT_THROW(h.quantile(0.5), PreconditionError);
}

TEST(Histogram, DecayReducesWeight) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25, 4.0);
  h.decay(0.5);
  EXPECT_DOUBLE_EQ(h.total_weight(), 2.0);
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
}

TEST(Histogram, WeightedAdd) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.1, 3.0);
  h.add(0.9, 1.0);
  EXPECT_DOUBLE_EQ(h.mass(0), 0.75);
}

TEST(Histogram, InvalidConstructionRejected) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), PreconditionError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), PreconditionError);
}

TEST(Histogram, NonFiniteObservationRejected) {
  Histogram h(0.0, 1.0, 2);
  EXPECT_THROW(h.add(std::nan("")), PreconditionError);
}

TEST(Histogram, CumulativeReachesOne) {
  Histogram h(0.0, 1.0, 5);
  h.add(0.1);
  h.add(0.9);
  EXPECT_NEAR(h.cumulative(h.bins() - 1), 1.0, 1e-12);
}

// -------------------------------------------------------------- sampler
TEST(InverseTransform, ReproducesHistogramDistribution) {
  Histogram h(0.0, 3.0, 3);
  h.add(0.5, 700.0);  // bin 0: 70%
  h.add(1.5, 200.0);  // bin 1: 20%
  h.add(2.5, 100.0);  // bin 2: 10%
  InverseTransformSampler sampler(h);
  Rng rng(5);
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    ++counts[h.bin_index(sampler.sample(rng))];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.7, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.1, 0.02);
}

TEST(InverseTransform, SamplesStayInRange) {
  Histogram h(-2.0, 2.0, 8);
  Rng fill(6);
  for (int i = 0; i < 50; ++i) h.add(fill.uniform(-2.0, 2.0));
  InverseTransformSampler sampler(h);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double s = sampler.sample(rng);
    EXPECT_GE(s, -2.0);
    EXPECT_LE(s, 2.0);
  }
}

TEST(InverseTransform, EmptyHistogramRejected) {
  Histogram h(0.0, 1.0, 2);
  EXPECT_THROW(InverseTransformSampler{h}, PreconditionError);
}

TEST(InverseTransform, SampleN) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.3);
  InverseTransformSampler sampler(h);
  Rng rng(8);
  EXPECT_EQ(sampler.sample_n(rng, 5).size(), 5u);
}

// ------------------------------------------------------------- circular
TEST(Circular, WrapAngle) {
  constexpr double pi = std::numbers::pi;
  EXPECT_NEAR(wrap_angle(0.0), 0.0, 1e-12);
  EXPECT_NEAR(wrap_angle(2.0 * pi), 0.0, 1e-12);
  EXPECT_NEAR(wrap_angle(pi + 0.1), -pi + 0.1, 1e-12);
  EXPECT_NEAR(wrap_angle(-pi - 0.1), pi - 0.1, 1e-12);
}

TEST(Circular, DifferenceAcrossWrap) {
  constexpr double pi = std::numbers::pi;
  EXPECT_NEAR(angle_difference(pi - 0.1, -pi + 0.1), -0.2, 1e-12);
}

TEST(Circular, SummaryOfTightCluster) {
  std::vector<double> angles{0.1, -0.1, 0.05, -0.05};
  auto s = circular_summary(angles);
  EXPECT_NEAR(s.mean, 0.0, 1e-12);
  EXPECT_GT(s.resultant, 0.99);
  EXPECT_LT(s.variance, 0.01);
}

TEST(Circular, SummaryOfOpposedAngles) {
  constexpr double pi = std::numbers::pi;
  std::vector<double> angles{0.0, pi};
  auto s = circular_summary(angles);
  EXPECT_NEAR(s.resultant, 0.0, 1e-9);
  EXPECT_NEAR(s.variance, 1.0, 1e-9);
}

TEST(Circular, MeanAcrossWrap) {
  constexpr double pi = std::numbers::pi;
  std::vector<double> angles{pi - 0.1, -pi + 0.1};
  auto s = circular_summary(angles);
  // Linear mean would be ~0; circular mean is +-pi.
  EXPECT_NEAR(std::abs(s.mean), pi, 1e-9);
}

// ------------------------------------------------------------- rayleigh
TEST(Rayleigh, ZeroAtZeroDistance) {
  EXPECT_DOUBLE_EQ(rayleigh_radius(0.0, 1.0), 0.0);
}

TEST(Rayleigh, PeaksAtScale) {
  double c = 2.0;
  EXPECT_DOUBLE_EQ(rayleigh_peak_distance(c), c);
  double peak = rayleigh_radius(c, c);
  EXPECT_DOUBLE_EQ(peak, rayleigh_peak_radius(c));
  EXPECT_GT(peak, rayleigh_radius(0.5 * c, c));
  EXPECT_GT(peak, rayleigh_radius(2.0 * c, c));
}

TEST(Rayleigh, FadesAtLargeDistance) {
  EXPECT_LT(rayleigh_radius(10.0, 1.0), 1e-15);
}

TEST(Rayleigh, RadiusNeverExceedsDistance) {
  for (double d = 0.0; d < 5.0; d += 0.1) {
    EXPECT_LE(rayleigh_radius(d, 1.3), d);
  }
}

TEST(Rayleigh, InvalidInputsRejected) {
  EXPECT_THROW(rayleigh_radius(-1.0, 1.0), PreconditionError);
  EXPECT_THROW(rayleigh_radius(1.0, 0.0), PreconditionError);
}

// ---------------------------------------------------------- descriptive
TEST(Descriptive, MeanMedianPercentile) {
  std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
}

TEST(Descriptive, FractionBelow) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(fraction_below(xs, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(fraction_below(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(fraction_below(xs, 10.0), 1.0);
}

TEST(Descriptive, StddevMatchesOnline) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Descriptive, EmptyInputsRejected) {
  std::vector<double> xs;
  EXPECT_THROW(mean(xs), PreconditionError);
  EXPECT_THROW(median(xs), PreconditionError);
  EXPECT_THROW(fraction_below(xs, 1.0), PreconditionError);
}

// ----------------------------------------------------------------- zipf
TEST(Zipf, MassesSumToOne) {
  ZipfSampler z(100, 0.9);
  double acc = 0.0;
  for (std::size_t k = 0; k < z.size(); ++k) acc += z.mass(k);
  EXPECT_NEAR(acc, 1.0, 1e-9);
}

TEST(Zipf, HeadHeavierThanTail) {
  ZipfSampler z(1000, 1.0);
  EXPECT_GT(z.mass(0), z.mass(10));
  EXPECT_GT(z.mass(10), z.mass(500));
}

TEST(Zipf, ZeroExponentIsUniform) {
  ZipfSampler z(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(z.mass(k), 0.1, 1e-12);
}

TEST(Zipf, SamplingFollowsMasses) {
  ZipfSampler z(50, 1.2);
  Rng rng(9);
  std::vector<int> counts(50, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), z.mass(0), 0.02);
  EXPECT_GT(counts[0], counts[20]);
}

// ----------------------------------------------------------------- var1
TEST(Var1, RecoversLinearDynamics) {
  // x_{t+1} = A x_t + b with known A, b.
  linalg::Matrix a{{0.9, 0.1}, {-0.2, 0.8}};
  std::vector<double> b{0.5, -0.3};
  std::vector<std::vector<double>> series;
  std::vector<double> x{1.0, 2.0};
  for (int t = 0; t < 40; ++t) {
    series.push_back(x);
    std::vector<double> next{a.at(0, 0) * x[0] + a.at(0, 1) * x[1] + b[0],
                             a.at(1, 0) * x[0] + a.at(1, 1) * x[1] + b[1]};
    x = next;
  }
  Var1Model model = Var1Model::fit(series);
  EXPECT_NEAR(model.transition().at(0, 0), 0.9, 1e-3);
  EXPECT_NEAR(model.transition().at(1, 0), -0.2, 1e-3);
  EXPECT_NEAR(model.intercept()[0], 0.5, 1e-2);

  auto pred = model.predict(series.back());
  std::vector<double> truth{
      a.at(0, 0) * series.back()[0] + a.at(0, 1) * series.back()[1] + b[0],
      a.at(1, 0) * series.back()[0] + a.at(1, 1) * series.back()[1] + b[1]};
  EXPECT_NEAR(pred[0], truth[0], 1e-3);
  EXPECT_NEAR(pred[1], truth[1], 1e-3);
}

TEST(Var1, KStepIteratesPrediction) {
  std::vector<std::vector<double>> series;
  double v = 1.0;
  for (int t = 0; t < 20; ++t) {
    series.push_back({v});
    v *= 0.5;
  }
  Var1Model model = Var1Model::fit(series);
  auto two = model.predict_k({1.0}, 2);
  EXPECT_NEAR(two[0], 0.25, 1e-6);
}

TEST(Var1, InsufficientSamplesRejected) {
  std::vector<std::vector<double>> series{{1.0, 2.0}, {2.0, 3.0}};
  EXPECT_THROW(Var1Model::fit(series), PreconditionError);
}

TEST(Var1, DimensionMismatchRejected) {
  Var1Model model = Var1Model::fit({{1.0}, {0.5}, {0.25}, {0.125}});
  EXPECT_THROW(model.predict({1.0, 2.0}), PreconditionError);
}

// ---------------------------------------------------- latent edge cases
// Pins for 0/0- and NaN-shaped inputs the contract pass flushed out: each
// of these either returned NaN or invoked UB before the guards landed.

TEST(OnlineMoments, StddevOfIdenticalSamplesIsExactlyZero) {
  // Welford's m2 can drift an ulp below zero on constant streams; the
  // variance clamp keeps stddev out of sqrt(negative) NaN territory.
  OnlineMoments m;
  for (int i = 0; i < 1000; ++i) m.observe(0.1 + 1e-17);
  EXPECT_GE(m.variance(), 0.0);
  EXPECT_FALSE(std::isnan(m.stddev()));
  EXPECT_DOUBLE_EQ(m.stddev(), 0.0);
}

TEST(Histogram, NonFiniteWeightRejected) {
  Histogram h(0.0, 1.0, 4);
  constexpr double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(h.add(0.5, inf), PreconditionError);
  EXPECT_THROW(h.add(0.5, std::numeric_limits<double>::quiet_NaN()),
               PreconditionError);
  // The rejected adds must not have poisoned the totals.
  h.add(0.5);
  EXPECT_DOUBLE_EQ(h.mass(h.bin_index(0.5)), 1.0);
}

TEST(Histogram, QuantileOfSingleLoadedBinStaysInsideThatBin) {
  Histogram h(0.0, 10.0, 10);
  h.add(7.3, 5.0);  // all mass in bin [7, 8)
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    double x = h.quantile(q);
    EXPECT_GE(x, 7.0) << "q=" << q;
    EXPECT_LE(x, 8.0) << "q=" << q;
  }
}

TEST(Circular, VarianceNeverNegative) {
  // With a single angle the resultant is exactly 1 mathematically, but
  // cos^2 + sin^2 can exceed 1 by an ulp; variance must clamp at 0.
  for (double a : {0.3, 1.0, 2.2, -2.9, 0.7853981633974483}) {
    std::vector<double> one{a};
    CircularSummary s = circular_summary(one);
    EXPECT_GE(s.variance, 0.0) << "angle=" << a;
    EXPECT_LE(s.resultant, 1.0) << "angle=" << a;
  }
}

// --- Hardening pins: near-singular VAR(1) fits and zipf s ~= 1 must
// never emit non-finite values (DESIGN.md §14 fuzzing relies on this).

TEST(Var1, ConstantSeriesFitsFinite) {
  // A constant series makes the design matrix rank-deficient; the
  // escalating ridge must still produce finite coefficients.
  std::vector<std::vector<double>> series(12, {3.0, -1.5});
  Var1Model model = Var1Model::fit(series, 0.0);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_TRUE(std::isfinite(model.intercept()[r]));
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_TRUE(std::isfinite(model.transition().at(r, c)));
    }
  }
  std::vector<double> next = model.predict({3.0, -1.5});
  for (double v : next) EXPECT_TRUE(std::isfinite(v));
}

TEST(Var1, CollinearDimensionsFitFinite) {
  // Second dimension is an exact copy of the first: collinear design.
  std::vector<std::vector<double>> series;
  for (int t = 0; t < 15; ++t) {
    double x = std::sin(0.3 * t);
    series.push_back({x, x});
  }
  Var1Model model = Var1Model::fit(series);
  std::vector<double> next = model.predict({0.5, 0.5});
  for (double v : next) EXPECT_TRUE(std::isfinite(v));
}

TEST(Var1, UnstablePredictKSaturatesFinite) {
  // x_{t+1} = 2 x_t has spectral radius 2: iterating 600 steps would
  // overflow to inf without the forecast clamp.
  std::vector<std::vector<double>> series;
  double x = 1e-3;
  for (int t = 0; t < 16; ++t) {
    series.push_back({x});
    x *= 2.0;
  }
  Var1Model model = Var1Model::fit(series);
  std::vector<double> far = model.predict_k({1.0}, 600);
  ASSERT_EQ(far.size(), 1u);
  EXPECT_TRUE(std::isfinite(far[0]));
}

TEST(Var1, NonFiniteObservationsRejected) {
  std::vector<std::vector<double>> series(8, {1.0});
  series[3][0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Var1Model::fit(series), PreconditionError);
}

TEST(Zipf, ExponentNearOneStaysFiniteAndMonotone) {
  for (double s : {1.0, 1.0 - 1e-12, 1.0 + 1e-12}) {
    ZipfSampler zipf(1000, s);
    double prev = 0.0;
    double total = 0.0;
    for (std::size_t k = 0; k < 1000; ++k) {
      double m = zipf.mass(k);
      EXPECT_TRUE(std::isfinite(m)) << "s=" << s << " k=" << k;
      EXPECT_GE(m, 0.0) << "s=" << s << " k=" << k;
      total += m;
      prev = m;
    }
    (void)prev;
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(Zipf, HugeExponentConcentratesAllMassFinite) {
  // pow overflows to inf for the tail weights; their reciprocal must be
  // a clean zero, leaving all mass on rank 0.
  ZipfSampler zipf(64, 5000.0);
  EXPECT_NEAR(zipf.mass(0), 1.0, 1e-15);
  for (std::size_t k = 1; k < 64; ++k) {
    EXPECT_TRUE(std::isfinite(zipf.mass(k)));
    EXPECT_GE(zipf.mass(k), 0.0);
  }
  Rng rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Zipf, NonFiniteExponentRejected) {
  EXPECT_THROW(ZipfSampler(8, std::numeric_limits<double>::infinity()),
               PreconditionError);
  EXPECT_THROW(ZipfSampler(8, std::numeric_limits<double>::quiet_NaN()),
               PreconditionError);
  EXPECT_THROW(ZipfSampler(8, -0.5), PreconditionError);
}

}  // namespace
}  // namespace stayaway::stats
