// Unit tests for the map embedder: stability across incremental updates,
// method selection, stress reporting.
#include <gtest/gtest.h>

#include <cmath>

#include "core/embedder.hpp"
#include "monitor/representative.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stayaway::core {
namespace {

monitor::RepresentativeSet cluster_reps(std::size_t clusters,
                                        std::size_t per_cluster, Rng& rng) {
  monitor::RepresentativeSet reps(0.0);
  for (std::size_t c = 0; c < clusters; ++c) {
    double cx = static_cast<double>(c) * 2.0;
    for (std::size_t i = 0; i < per_cluster; ++i) {
      reps.assign({cx + rng.normal(0.0, 0.05), rng.normal(0.0, 0.05),
                   c == 0 ? 0.0 : 1.0});
    }
  }
  return reps;
}

TEST(Embedder, SinglePointAtOrigin) {
  MapEmbedder embedder(EmbedMethod::SmacofWarm);
  monitor::RepresentativeSet reps(0.0);
  reps.assign({0.5, 0.5});
  const auto& pos = embedder.update(reps);
  ASSERT_EQ(pos.size(), 1u);
  EXPECT_EQ(pos[0], (mds::Point2{0.0, 0.0}));
}

TEST(Embedder, UnchangedSetKeepsPositions) {
  MapEmbedder embedder(EmbedMethod::SmacofWarm);
  monitor::RepresentativeSet reps(0.0);
  reps.assign({0.0, 0.0});
  reps.assign({1.0, 0.0});
  auto first = embedder.update(reps);
  auto second = embedder.update(reps);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], second[i]);
}

TEST(Embedder, ShrinkingSetReEmbedsFromScratch) {
  // A reset or compacted representative set (template reuse loading a
  // smaller map) must not crash the runtime: the embedder drops its
  // incremental state and starts over.
  MapEmbedder embedder(EmbedMethod::SmacofWarm);
  monitor::RepresentativeSet big(0.0);
  big.assign({0.0, 0.0});
  big.assign({1.0, 0.0});
  big.assign({0.0, 1.0});
  embedder.update(big);
  EXPECT_EQ(embedder.rebuilds(), 0u);

  monitor::RepresentativeSet small(0.0);
  small.assign({0.0, 0.0});
  small.assign({2.0, 0.0});
  const auto& shrunk = embedder.update(small);
  ASSERT_EQ(shrunk.size(), 2u);
  EXPECT_EQ(embedder.rebuilds(), 1u);
  EXPECT_NEAR(mds::distance(shrunk[0], shrunk[1]), 2.0, 1e-6);

  // Growth after the rebuild keeps working incrementally.
  small.assign({0.0, 2.0});
  const auto& grown = embedder.update(small);
  EXPECT_EQ(grown.size(), 3u);
  EXPECT_LT(embedder.stress(), 0.02);
}

TEST(Embedder, WarmStartKeepsExistingLayoutStable) {
  // Adding one new point must not flip or rotate the established map —
  // the trajectory model depends on directions staying put.
  MapEmbedder embedder(EmbedMethod::SmacofWarm);
  Rng rng(5);
  monitor::RepresentativeSet reps(0.0);
  for (int i = 0; i < 12; ++i) {
    reps.assign({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  mds::Embedding before = embedder.update(reps);

  reps.assign({0.5, 0.5, 0.5});
  mds::Embedding after = embedder.update(reps);
  ASSERT_EQ(after.size(), before.size() + 1);
  double max_drift = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    max_drift = std::max(max_drift, mds::distance(before[i], after[i]));
  }
  // Points may polish slightly but must not jump across the map.
  EXPECT_LT(max_drift, 0.2);
}

TEST(Embedder, DistancesPreservedOnGrowth) {
  MapEmbedder embedder(EmbedMethod::SmacofWarm);
  monitor::RepresentativeSet reps(0.0);
  reps.assign({0.0, 0.0});
  reps.assign({1.0, 0.0});
  reps.assign({0.0, 1.0});
  embedder.update(reps);
  reps.assign({1.0, 1.0});
  const auto& pos = embedder.update(reps);
  EXPECT_LT(embedder.stress(), 0.02);
  EXPECT_NEAR(mds::distance(pos[0], pos[3]), std::sqrt(2.0), 0.05);
}

TEST(Embedder, ColdMethodAlsoEmbedsAccurately) {
  // The first update has no layout to warm-start from: it is the cold
  // (classical-MDS seeded) solve.
  MapEmbedder embedder(EmbedMethod::SmacofWarm);
  Rng rng(6);
  monitor::RepresentativeSet reps(0.0);
  for (int i = 0; i < 10; ++i) reps.assign({rng.uniform(), rng.uniform()});
  embedder.update(reps);
  EXPECT_LT(embedder.stress(), 0.02);  // planar data embeds exactly
}

TEST(Embedder, PcaMethodProducesEmbedding) {
  MapEmbedder embedder(EmbedMethod::Pca);
  Rng rng(7);
  monitor::RepresentativeSet reps(0.0);
  for (int i = 0; i < 8; ++i) {
    reps.assign({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  const auto& pos = embedder.update(reps);
  EXPECT_EQ(pos.size(), 8u);
  EXPECT_GE(embedder.stress(), 0.0);
}

TEST(Embedder, LandmarkFallsBackBelowLandmarkCount) {
  MapEmbedder embedder(EmbedMethod::LandmarkIncremental,
                       /*landmark_count=*/8);
  monitor::RepresentativeSet reps(0.0);
  reps.assign({0.0, 0.0});
  reps.assign({1.0, 0.0});
  reps.assign({0.0, 1.0});
  const auto& pos = embedder.update(reps);
  EXPECT_EQ(pos.size(), 3u);
  EXPECT_LT(embedder.stress(), 0.02);
  EXPECT_EQ(embedder.landmark_fit_size(), 0u);  // plain SMACOF below k
}

TEST(Embedder, LandmarkPathKicksInAboveThreshold) {
  MapEmbedder embedder(EmbedMethod::LandmarkIncremental,
                       /*landmark_count=*/6);
  Rng rng(8);
  monitor::RepresentativeSet reps(0.0);
  for (int i = 0; i < 20; ++i) reps.assign({rng.uniform(), rng.uniform()});
  embedder.update(reps);
  EXPECT_EQ(embedder.landmark_fit_size(), 20u);
  // Planar data: even the approximation should embed well.
  EXPECT_LT(embedder.stress(), 0.1);
}

TEST(Embedder, ClustersRemainSeparated) {
  MapEmbedder embedder(EmbedMethod::SmacofWarm);
  Rng rng(9);
  auto reps = cluster_reps(2, 6, rng);
  const auto& pos = embedder.update(reps);
  // Centroids of the two clusters must be far apart relative to spread.
  mds::Point2 c0{}, c1{};
  for (std::size_t i = 0; i < 6; ++i) {
    c0 = c0 + pos[i];
    c1 = c1 + pos[6 + i];
  }
  c0 = {c0.x / 6.0, c0.y / 6.0};
  c1 = {c1.x / 6.0, c1.y / 6.0};
  EXPECT_GT(mds::distance(c0, c1), 1.0);
}

TEST(Embedder, IterationsAccumulateForSmacof) {
  MapEmbedder embedder(EmbedMethod::SmacofWarm);
  Rng rng(10);
  monitor::RepresentativeSet reps(0.0);
  reps.assign({rng.uniform(), rng.uniform(), rng.uniform()});
  reps.assign({rng.uniform(), rng.uniform(), rng.uniform()});
  embedder.update(reps);
  reps.assign({rng.uniform(), rng.uniform(), rng.uniform()});
  embedder.update(reps);
  EXPECT_GT(embedder.total_iterations(), 0u);
}

}  // namespace
}  // namespace stayaway::core
