// Tests for the incremental/cached map->predict hot path: the growable
// dissimilarity matrix, the violation-range cache, the warm-start
// cold-skip, the fleet's worker team, and the predictor's
// empty-candidate guard. The load-bearing property throughout is
// equivalence: every fast path must produce the same results as the
// from-scratch path it replaces.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/embedder.hpp"
#include "core/predictor.hpp"
#include "core/statespace.hpp"
#include "core/trajectory.hpp"
#include "matrix_compare.hpp"
#include "mds/distance.hpp"
#include "mds/incremental.hpp"
#include "mds/procrustes.hpp"
#include "mds/smacof.hpp"
#include "monitor/representative.hpp"
#include "stats/rayleigh.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace stayaway {
namespace {

std::vector<std::vector<double>> random_vectors(std::size_t n, std::size_t dim,
                                                Rng& rng) {
  std::vector<std::vector<double>> out(n);
  for (auto& v : out) {
    for (std::size_t d = 0; d < dim; ++d) v.push_back(rng.uniform());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Thread pool.

TEST(ThreadPool, SingleThreadRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran;
  std::vector<std::size_t> workers;
  util::run_team(1, [&](std::size_t w) {
    workers.push_back(w);
    ran.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(workers, std::vector<std::size_t>{0});
  EXPECT_EQ(ran, std::vector<std::thread::id>{caller});
}

// Every worker index of a team runs exactly once, each on its own
// thread, worker 0 on the caller — at every team size from 1 to 8.
TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t threads = 1; threads <= 8; ++threads) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    // Each worker writes only its own element.
    std::vector<int> runs(threads, 0);
    std::vector<std::thread::id> ids(threads);
    std::atomic<std::size_t> strays{0};
    util::run_team(threads, [&](std::size_t w) {
      if (w >= threads) {
        ++strays;
        return;
      }
      ++runs[w];
      ids[w] = std::this_thread::get_id();
    });
    EXPECT_EQ(strays.load(), 0u);
    for (int r : runs) EXPECT_EQ(r, 1);
    EXPECT_EQ(ids.front(), caller);
    EXPECT_EQ(std::set<std::thread::id>(ids.begin(), ids.end()).size(),
              threads);
  }
}

// ---------------------------------------------------------------------------
// Incremental dissimilarity matrix.

TEST(HotPath, ExtendedDistanceMatrixMatchesFromScratch) {
  Rng rng(42);
  auto vectors = random_vectors(40, 6, rng);

  // Grow one row at a time from a 3-point seed, exactly like the
  // embedder does across periods.
  std::vector<std::vector<double>> prefix(vectors.begin(), vectors.begin() + 3);
  linalg::Matrix incremental = mds::distance_matrix(prefix);
  for (std::size_t n = 4; n <= vectors.size(); ++n) {
    prefix.push_back(vectors[n - 1]);
    incremental = mds::extended_distance_matrix(incremental, prefix);
    linalg::Matrix scratch = mds::distance_matrix(prefix);
    ASSERT_EQ(incremental.rows(), scratch.rows());
    EXPECT_EQ(testutil::max_abs_difference(incremental, scratch), 0.0)
        << "n=" << n;
  }
}

TEST(HotPath, ExtendedDistanceMatrixHandlesEdgeCases) {
  Rng rng(43);
  auto vectors = random_vectors(5, 3, rng);
  // Empty base: full build.
  linalg::Matrix from_empty =
      mds::extended_distance_matrix(linalg::Matrix(), vectors);
  EXPECT_EQ(testutil::max_abs_difference(from_empty,
                                         mds::distance_matrix(vectors)),
            0.0);
  // Already complete: unchanged.
  linalg::Matrix full = mds::distance_matrix(vectors);
  EXPECT_EQ(testutil::max_abs_difference(
                mds::extended_distance_matrix(full, vectors), full),
            0.0);
}

// ---------------------------------------------------------------------------
// Embedder: incremental matrix + cold-skip vs the from-scratch path.

// The historical from-scratch SmacofWarm step: full O(n^2) matrix rebuild,
// warm solve, verifying cold solve, Procrustes re-alignment.
mds::Embedding scratch_warm_step(const std::vector<std::vector<double>>& vectors,
                                 const mds::Embedding& prev) {
  const std::size_t n = vectors.size();
  if (n == 1) return {mds::Point2{}};
  linalg::Matrix delta = mds::distance_matrix(vectors);
  mds::SmacofResult res;
  if (!prev.empty()) {
    mds::SmacofOptions opts;
    mds::Embedding init = prev;
    for (std::size_t i = prev.size(); i < n; ++i) {
      std::vector<double> d(i, 0.0);
      for (std::size_t j = 0; j < i; ++j) d[j] = delta.at(i, j);
      init.push_back(mds::place_point(init, d));
    }
    opts.initial = std::move(init);
    res = mds::smacof(delta, opts);
    mds::SmacofResult cold = mds::smacof(delta);
    if (cold.stress <= res.stress) res = std::move(cold);
  } else {
    res = mds::smacof(delta);
  }
  mds::Embedding positions = std::move(res.points);
  if (prev.size() >= 2) {
    mds::Embedding head(positions.begin(),
                        positions.begin() +
                            static_cast<std::ptrdiff_t>(prev.size()));
    auto align = mds::procrustes_align(
        head, prev, {.allow_reflection = true, .allow_scaling = false});
    positions = align.transform.apply(positions);
  }
  return positions;
}

TEST(HotPath, IncrementalEmbedderMatchesFromScratchPath) {
  Rng rng(46);
  core::MapEmbedder embedder(core::EmbedMethod::SmacofWarm);
  monitor::RepresentativeSet reps(0.0);
  mds::Embedding scratch;
  for (std::size_t n = 1; n <= 14; ++n) {
    reps.assign({rng.uniform(), rng.uniform(), rng.uniform()});
    const mds::Embedding& fast = embedder.update(reps);
    scratch = scratch_warm_step(reps.all(), scratch);
    ASSERT_EQ(fast.size(), scratch.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_NEAR(fast[i].x, scratch[i].x, 1e-9) << "n=" << n << " i=" << i;
      EXPECT_NEAR(fast[i].y, scratch[i].y, 1e-9) << "n=" << n << " i=" << i;
    }
  }
}

TEST(HotPath, WarmSkipAvoidsColdRunsAndKeepsStressAcceptable) {
  Rng rng(47);
  core::MapEmbedder skipping(core::EmbedMethod::SmacofWarm, 24,
                             /*warm_skip_stress=*/0.1);
  core::MapEmbedder full(core::EmbedMethod::SmacofWarm, 24,
                         /*warm_skip_stress=*/0.0);
  monitor::RepresentativeSet reps(0.0);
  for (std::size_t n = 1; n <= 16; ++n) {
    reps.assign({rng.uniform(), rng.uniform(), rng.uniform()});
    skipping.update(reps);
    full.update(reps);
  }
  EXPECT_GT(skipping.cold_runs_skipped(), 0u);
  EXPECT_EQ(full.cold_runs_skipped(), 0u);
  // Skipping the verification run must not degrade the layout materially
  // relative to the always-verify path. (The absolute stress is dominated
  // by the data — random 3-D points have irreducible 2-D stress.)
  EXPECT_LE(skipping.stress(), full.stress() + 0.05);
  EXPECT_LT(skipping.total_iterations(), full.total_iterations());
}

// ---------------------------------------------------------------------------
// StateSpace: cached violation ranges vs from-scratch recomputation.

// The historical per-call range computation, via the public API only.
std::vector<core::ViolationRange> scratch_ranges(const core::StateSpace& s) {
  std::vector<core::ViolationRange> out;
  double c = s.scale();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.label(i) != core::StateLabel::Violation) continue;
    core::ViolationRange range;
    range.state = i;
    range.center = s.position(i);
    auto d = s.nearest_safe_distance(s.position(i));
    range.radius = (d.has_value() && *d > 0.0 && c > 0.0)
                       ? stats::rayleigh_radius(*d, c)
                       : 0.0;
    out.push_back(range);
  }
  return out;
}

void expect_ranges_equal(const std::vector<core::ViolationRange>& a,
                         const std::vector<core::ViolationRange>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].state, b[i].state);
    EXPECT_EQ(a[i].center, b[i].center);
    EXPECT_NEAR(a[i].radius, b[i].radius, 1e-9);
  }
}

TEST(HotPath, CachedRangesTrackEveryMutator) {
  Rng rng(48);
  core::StateSpace space;
  mds::Embedding positions;
  for (int i = 0; i < 30; ++i) {
    space.add_state(i % 5 == 0 ? core::StateLabel::Violation
                               : core::StateLabel::Safe);
    positions.push_back({rng.uniform(), rng.uniform()});
  }
  space.sync_positions(positions);
  expect_ranges_equal(space.violation_ranges(), scratch_ranges(space));

  // add_state invalidates.
  space.add_state(core::StateLabel::Violation);
  positions.push_back({0.5, 0.5});
  space.sync_positions(positions);
  expect_ranges_equal(space.violation_ranges(), scratch_ranges(space));

  // force_violation invalidates.
  space.force_violation(1);
  expect_ranges_equal(space.violation_ranges(), scratch_ranges(space));

  // observe_visit invalidates when (and only when) the label flips.
  for (int v = 0; v < 3; ++v) space.observe_visit(2, /*violated=*/true);
  EXPECT_EQ(space.label(2), core::StateLabel::Violation);
  expect_ranges_equal(space.violation_ranges(), scratch_ranges(space));

  // sync_positions with moved points invalidates.
  positions[0] = {9.0, 9.0};
  space.sync_positions(positions);
  expect_ranges_equal(space.violation_ranges(), scratch_ranges(space));

  // Re-syncing identical positions keeps the cache valid and correct.
  space.sync_positions(positions);
  expect_ranges_equal(space.violation_ranges(), scratch_ranges(space));
}

TEST(HotPath, CachedRegionQueriesMatchScratch) {
  Rng rng(49);
  core::StateSpace space;
  mds::Embedding positions;
  for (int i = 0; i < 50; ++i) {
    space.add_state(i % 4 == 0 ? core::StateLabel::Violation
                               : core::StateLabel::Safe);
    positions.push_back({rng.uniform(), rng.uniform()});
  }
  space.sync_positions(positions);
  auto fresh = scratch_ranges(space);
  for (int q = 0; q < 200; ++q) {
    mds::Point2 p{rng.uniform() * 1.2 - 0.1, rng.uniform() * 1.2 - 0.1};
    bool scratch_hit = false;
    for (const auto& r : fresh) {
      if (mds::distance(p, r.center) <= r.radius + 1e-9) scratch_hit = true;
    }
    EXPECT_EQ(space.in_violation_region(p), scratch_hit);
  }
}

TEST(HotPath, CoincidentMapYieldsZeroRadiusRangesWithoutAborting) {
  // All mapped points on one spot: the map carries no geometry, so the
  // ranges must be the violation-states themselves (radius 0) — not a
  // crash inside rayleigh_radius.
  core::StateSpace space;
  space.add_state(core::StateLabel::Safe);
  space.add_state(core::StateLabel::Violation);
  space.add_state(core::StateLabel::Violation);
  space.sync_positions({{2.0, 2.0}, {2.0, 2.0}, {2.0, 2.0}});
  const auto& ranges = space.violation_ranges();
  ASSERT_EQ(ranges.size(), 2u);
  for (const auto& r : ranges) EXPECT_DOUBLE_EQ(r.radius, 0.0);
  // The states themselves still predict a violation on exact revisit.
  EXPECT_TRUE(space.in_violation_region({2.0, 2.0}));
  EXPECT_FALSE(space.in_violation_region({3.0, 3.0}));
}

// ---------------------------------------------------------------------------
// Predictor: empty candidate sets must not divide by zero.

TEST(HotPath, PredictorWithNoCandidatesReturnsNonPredictingResult) {
  core::StateSpace space;
  space.add_state(core::StateLabel::Violation);
  space.sync_positions({{0.0, 0.0}});

  // min_observations = 0 declares the model ready before it has a single
  // observation — sample_future then has nothing to draw from.
  core::ModeTrajectories modes(/*max_step=*/1.0, /*bins=*/8);
  core::Predictor predictor(/*sample_count=*/5, /*majority_fraction=*/0.5,
                            /*min_observations=*/0);
  Rng rng(50);
  core::Prediction p = predictor.predict(
      space, modes, monitor::ExecutionMode::CoLocated, {0.0, 0.0}, rng);
  EXPECT_TRUE(p.model_ready);
  EXPECT_EQ(p.samples, 0u);
  EXPECT_EQ(p.samples_in_violation, 0u);
  EXPECT_FALSE(p.violation_predicted);
}

}  // namespace
}  // namespace stayaway
