// Property-based tests: parameterized sweeps over the library's key
// invariants, using TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/statespace.hpp"
#include "mds/distance.hpp"
#include "mds/procrustes.hpp"
#include "mds/smacof.hpp"
#include "sim/contention.hpp"
#include "stats/histogram.hpp"
#include "stats/rayleigh.hpp"
#include "stats/sampler.hpp"
#include "util/rng.hpp"

namespace stayaway {
namespace {

// ---------------------------------------------------- rayleigh properties
class RayleighSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RayleighSweep, RadiusBoundedByDistanceAndPeak) {
  auto [d, c] = GetParam();
  double r = stats::rayleigh_radius(d, c);
  EXPECT_GE(r, 0.0);
  EXPECT_LE(r, d);  // never swallows the whole gap to the safe state
  EXPECT_LE(r, stats::rayleigh_peak_radius(c) + 1e-12);
}

TEST_P(RayleighSweep, MonotoneBeforePeakDecayAfter) {
  auto [d, c] = GetParam();
  double eps = 1e-4;
  double r0 = stats::rayleigh_radius(d, c);
  double r1 = stats::rayleigh_radius(d + eps, c);
  if (d + eps < c) {
    EXPECT_GE(r1, r0);  // rising limb
  } else if (d > c) {
    EXPECT_LE(r1, r0);  // fading limb
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RayleighSweep,
    ::testing::Combine(::testing::Values(0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0),
                       ::testing::Values(0.25, 0.5, 1.0, 2.0, 4.0)));

// ------------------------------------------------- histogram + sampling
class HistogramSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HistogramSweep, MassesSumToOneAndQuantilesMonotone) {
  std::size_t bins = GetParam();
  stats::Histogram h(0.0, 1.0, bins);
  Rng rng(bins);
  for (int i = 0; i < 200; ++i) h.add(rng.uniform());
  double total = 0.0;
  for (std::size_t b = 0; b < h.bins(); ++b) total += h.mass(b);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(HistogramSweep, InverseTransformMatchesEmpiricalMass) {
  std::size_t bins = GetParam();
  stats::Histogram h(0.0, 1.0, bins);
  Rng fill(bins * 7 + 1);
  for (int i = 0; i < 300; ++i) h.add(fill.uniform() * fill.uniform());
  stats::InverseTransformSampler sampler;
  sampler.reset(h);
  Rng rng(bins * 13 + 5);
  std::vector<double> counts(bins, 0.0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) counts[h.bin_index(sampler.sample(rng))] += 1.0;
  for (std::size_t b = 0; b < bins; ++b) {
    EXPECT_NEAR(counts[b] / n, h.mass(b), 0.03) << "bin " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HistogramSweep,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u, 64u));

// ----------------------------------------------------- SMACOF properties
class SmacofSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SmacofSweep, EmbeddingStressBelowRandomBaseline) {
  std::size_t n = GetParam();
  Rng rng(n);
  std::vector<std::vector<double>> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()});
  }
  auto delta = mds::distance_matrix(pts);
  mds::SmacofResult res = mds::smacof(delta);
  // A 2-D embedding of random 4-D data cannot be perfect but must beat a
  // random configuration by a wide margin.
  mds::Embedding random_cfg;
  for (std::size_t i = 0; i < n; ++i) {
    random_cfg.push_back({rng.uniform(), rng.uniform()});
  }
  EXPECT_LT(res.stress, 0.35);
  EXPECT_LT(res.stress, mds::normalized_stress(delta, random_cfg));
}

TEST_P(SmacofSweep, TriangleInequalityRespectedInMap) {
  std::size_t n = GetParam();
  Rng rng(n * 3 + 1);
  std::vector<std::vector<double>> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  mds::SmacofResult res = mds::smacof(mds::distance_matrix(pts));
  // Map distances are Euclidean, so the triangle inequality must hold.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      for (std::size_t c = b + 1; c < n; ++c) {
        double ab = mds::distance(res.points[a], res.points[b]);
        double bc = mds::distance(res.points[b], res.points[c]);
        double ac = mds::distance(res.points[a], res.points[c]);
        EXPECT_LE(ac, ab + bc + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SmacofSweep,
                         ::testing::Values(4u, 8u, 16u, 24u));

// ------------------------------------------------- contention invariants
struct ContentionCase {
  double cpu_a;
  double cpu_b;
  double mem_a;
  double mem_b;
};

class ContentionSweep : public ::testing::TestWithParam<ContentionCase> {};

TEST_P(ContentionSweep, ConservationAndBounds) {
  ContentionCase cs = GetParam();
  sim::HostSpec host;
  host.cpu_cores = 4.0;
  host.memory_mb = 4096.0;
  std::vector<sim::ResourceDemand> demands(2);
  demands[0].cpu_cores = cs.cpu_a;
  demands[0].memory_mb = cs.mem_a;
  demands[1].cpu_cores = cs.cpu_b;
  demands[1].memory_mb = cs.mem_b;
  std::vector<sim::Allocation> alloc;
  sim::resolve_contention(host, demands, alloc);

  double cpu_total = 0.0;
  for (std::size_t i = 0; i < 2; ++i) {
    // Granted never exceeds demand.
    EXPECT_LE(alloc[i].granted.cpu_cores, demands[i].cpu_cores + 1e-9);
    EXPECT_LE(alloc[i].granted.memory_mb, demands[i].memory_mb + 1e-9);
    // Progress and swap fraction live in [0,1].
    EXPECT_GE(alloc[i].progress, 0.0);
    EXPECT_LE(alloc[i].progress, 1.0);
    EXPECT_GE(alloc[i].swapped_fraction, 0.0);
    EXPECT_LE(alloc[i].swapped_fraction, 1.0);
    cpu_total += alloc[i].granted.cpu_cores;
  }
  // CPU never oversubscribed.
  EXPECT_LE(cpu_total, host.cpu_cores + 1e-9);
  // Resident memory never exceeds physical memory when oversubscribed.
  double mem_total = alloc[0].granted.memory_mb + alloc[1].granted.memory_mb;
  if (cs.mem_a + cs.mem_b > host.memory_mb) {
    EXPECT_NEAR(mem_total, host.memory_mb, 1.0);
  }
}

TEST_P(ContentionSweep, MoreContentionNeverSpeedsAnyoneUp) {
  ContentionCase cs = GetParam();
  sim::HostSpec host;
  host.cpu_cores = 4.0;
  host.memory_mb = 4096.0;
  std::vector<sim::ResourceDemand> alone(1);
  alone[0].cpu_cores = cs.cpu_a;
  alone[0].memory_mb = cs.mem_a;
  std::vector<sim::Allocation> alloc_alone;
  sim::resolve_contention(host, alone, alloc_alone);

  std::vector<sim::ResourceDemand> both(2);
  both[0] = alone[0];
  both[1].cpu_cores = cs.cpu_b;
  both[1].memory_mb = cs.mem_b;
  std::vector<sim::Allocation> alloc_both;
  sim::resolve_contention(host, both, alloc_both);

  EXPECT_LE(alloc_both[0].progress, alloc_alone[0].progress + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ContentionSweep,
    ::testing::Values(ContentionCase{1.0, 1.0, 500.0, 500.0},
                      ContentionCase{3.0, 3.0, 1000.0, 1000.0},
                      ContentionCase{0.5, 6.0, 100.0, 3000.0},
                      ContentionCase{4.0, 4.0, 3000.0, 3000.0},
                      ContentionCase{2.0, 0.0, 4000.0, 4000.0},
                      ContentionCase{0.0, 8.0, 0.0, 8000.0}));

// ------------------------------------------------ procrustes properties
class ProcrustesSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProcrustesSweep, RandomSimilarityTransformsRecovered) {
  Rng rng(GetParam());
  mds::Embedding src;
  for (int i = 0; i < 15; ++i) {
    src.push_back({rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)});
  }
  double angle = rng.uniform(-3.0, 3.0);
  double scale = rng.uniform(0.3, 3.0);
  bool reflect = rng.chance(0.5);
  mds::ProcrustesTransform truth;
  truth.rotation = angle;
  truth.scale = scale;
  truth.reflected = reflect;
  truth.translation = {rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
  mds::Embedding tgt = truth.apply(src);

  auto res = mds::procrustes_align(src, tgt);
  EXPECT_NEAR(res.rms_error, 0.0, 1e-6);
  mds::Embedding mapped = res.transform.apply(src);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_NEAR(mds::distance(mapped[i], tgt[i]), 0.0, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProcrustesSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ------------------------------------------------- state-space property
class ViolationRangeSweep : public ::testing::TestWithParam<double> {};

TEST_P(ViolationRangeSweep, SafeStatesNeverInsideTheirOwnExclusion) {
  // The nearest safe state is never inside the violation range it defines:
  // R(d) <= d for all d, so the boundary stops short of the safe state.
  double gap = GetParam();
  core::StateSpace space;
  space.add_state(core::StateLabel::Safe);
  space.add_state(core::StateLabel::Violation);
  space.sync_positions({{0.0, 0.0}, {gap, 0.0}});
  auto ranges = space.violation_ranges();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_LT(ranges[0].radius, gap + 1e-12);
  EXPECT_FALSE(space.in_violation_region({0.0, 0.0}) &&
               ranges[0].radius < gap);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ViolationRangeSweep,
                         ::testing::Values(0.05, 0.1, 0.5, 1.0, 2.0, 4.0));

}  // namespace
}  // namespace stayaway
