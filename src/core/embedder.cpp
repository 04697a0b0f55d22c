#include "core/embedder.hpp"

#include <algorithm>
#include <cmath>

#include "mds/distance.hpp"
#include "mds/incremental.hpp"
#include "mds/landmark.hpp"
#include "mds/pca.hpp"
#include "mds/procrustes.hpp"
#include "mds/smacof.hpp"
#include "util/check.hpp"

namespace stayaway::core {

namespace {

/// LandmarkIncremental refits once the set has grown by this factor since
/// the last fit (geometric refresh: O(1) amortized refit cost per point).
constexpr double kLandmarkRefreshFactor = 2.0;

// SA_INVARIANT audits (paranoid tier, see DESIGN.md §11). These are the
// mathematical contracts the incremental hot path must preserve: growing
// the dissimilarity matrix row-by-row must keep it a valid dissimilarity
// matrix, and every layout handed to the state space must be finite.

bool is_dissimilarity_matrix(const linalg::Matrix& m) {
  if (m.rows() != m.cols()) return false;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (m.at(i, i) != 0.0) return false;
    for (std::size_t j = i + 1; j < m.cols(); ++j) {
      double d = m.at(i, j);
      if (!(std::isfinite(d) && d >= 0.0) || d != m.at(j, i)) return false;
    }
  }
  return true;
}

bool all_finite(const mds::Embedding& points) {
  for (const auto& p : points) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) return false;
  }
  return true;
}

}  // namespace

MapEmbedder::MapEmbedder(EmbedMethod method, std::size_t landmark_count,
                         double warm_skip_stress)
    : method_(method),
      landmark_count_(std::max<std::size_t>(landmark_count, 3)),
      warm_skip_stress_(warm_skip_stress) {
  SA_REQUIRE(warm_skip_stress >= 0.0, "stress bound must be non-negative");
}

const mds::Embedding& MapEmbedder::update(
    const monitor::RepresentativeSet& reps) {
  if (reps.size() == positions_.size()) return positions_;
  if (reps.size() < positions_.size()) {
    // The set was reset or compacted (e.g. template reuse loading a
    // smaller map). The old layout and its dissimilarity matrix describe
    // points that no longer exist: drop them and re-embed from scratch.
    positions_.clear();
    delta_ = linalg::Matrix();
    landmark_model_.reset();
    landmark_vectors_.clear();
    landmark_align_ = mds::ProcrustesTransform{};
    last_fit_size_ = 0;
    ++rebuilds_;
  }
  embed(reps);
  SA_CHECK(std::isfinite(stress_) && stress_ >= 0.0,
           "normalized stress must be finite and non-negative");
  SA_INVARIANT(all_finite(positions_),
               "every embedded coordinate must be finite");
  return positions_;
}

const linalg::Matrix& MapEmbedder::refresh_delta(
    const std::vector<std::vector<double>>& vectors) {
  if (delta_.rows() == 0) {
    delta_ = mds::distance_matrix(vectors);
  } else {
    delta_ = mds::extended_distance_matrix(delta_, vectors);
  }
  SA_INVARIANT(is_dissimilarity_matrix(delta_),
               "incremental growth must keep the dissimilarity matrix "
               "symmetric, zero-diagonal, finite and non-negative");
  return delta_;
}

void MapEmbedder::embed(const monitor::RepresentativeSet& reps) {
  const auto& vectors = reps.all();
  const std::size_t n = vectors.size();
  if (n == 1) {
    positions_ = {mds::Point2{}};
    stress_ = 0.0;
    return;
  }

  if (method_ == EmbedMethod::LandmarkIncremental && n > landmark_count_) {
    // Streaming regime: never touch the O(n^2) dissimilarity matrix.
    embed_landmark_incremental(vectors);
    return;
  }

  const linalg::Matrix& delta = refresh_delta(vectors);
  if (method_ == EmbedMethod::Pca) {
    positions_ = mds::pca_embed(vectors);
    stress_ = mds::normalized_stress(delta, positions_);
    return;
  }

  // SmacofWarm — and LandmarkIncremental below the landmark count: a
  // handful of points is cheap to solve exactly, and the warm seed keeps
  // the map stable until the streaming regime takes over.
  mds::Embedding prev = positions_;
  mds::SmacofResult res;
  if (!prev.empty()) {
    // Warm seed: old points keep their spot; each new one is placed
    // against everything already positioned. Warm starts converge in a
    // couple of iterations but can inherit a local minimum, so unless the
    // warm stress already meets the skip bound a cold run (classical-MDS
    // seed) verifies it and the lower-stress configuration wins (ties go
    // to cold, as historically).
    mds::SmacofOptions opts;
    mds::Embedding init = prev;
    for (std::size_t i = prev.size(); i < n; ++i) {
      std::vector<double> d(i, 0.0);
      for (std::size_t j = 0; j < i; ++j) d[j] = delta.at(i, j);
      init.push_back(mds::place_point(init, d));
    }
    opts.initial = std::move(init);
    res = mds::smacof(delta, opts);
    total_iterations_ += res.iterations;
    if (warm_skip_stress_ > 0.0 && res.stress <= warm_skip_stress_) {
      ++cold_runs_skipped_;
    } else {
      const double warm_stress = res.stress;
      mds::SmacofResult cold = mds::smacof(delta);
      total_iterations_ += cold.iterations;
      if (cold.stress <= res.stress) res = std::move(cold);
      // Stress monotonicity: keeping the better of the two solves can
      // never end up above the warm-started stress.
      SA_CHECK(res.stress <= warm_stress,
               "warm/cold selection must not increase stress");
    }
  } else {
    res = mds::smacof(delta);  // classical-MDS seed
    total_iterations_ += res.iterations;
  }
  positions_ = std::move(res.points);
  stress_ = res.stress;
  if (prev.size() >= 2) {
    // Whichever solution won, rotate/flip it back onto the previous
    // layout so directions in the map stay meaningful across periods.
    mds::Embedding head(positions_.begin(),
                        positions_.begin() +
                            static_cast<std::ptrdiff_t>(prev.size()));
    auto align = mds::procrustes_align(
        head, prev, {.allow_reflection = true, .allow_scaling = false});
    positions_ = align.transform.apply(positions_);
  }
}

void MapEmbedder::persist(util::StateIO& io,
                          const std::vector<std::vector<double>>& vectors) {
  io.points("positions", positions_);
  io.real("stress", stress_);
  io.u64("total_iterations", total_iterations_);
  io.u64("cold_runs_skipped", cold_runs_skipped_);
  io.u64("rebuilds", rebuilds_);
  if (method_ == EmbedMethod::LandmarkIncremental) {
    io.u64("landmark_fit_size", last_fit_size_);
    io.real("landmark_align_rotation", landmark_align_.rotation);
    io.boolean("landmark_align_reflected", landmark_align_.reflected);
    io.real("landmark_align_scale", landmark_align_.scale);
    io.real("landmark_align_tx", landmark_align_.translation.x);
    io.real("landmark_align_ty", landmark_align_.translation.y);
  }
  if (!io.loading()) return;
  if (positions_.size() != vectors.size()) {
    throw util::StateCodecError(
        "embedder state: position/representative count mismatch");
  }
  if (last_fit_size_ > vectors.size()) {
    throw util::StateCodecError(
        "embedder state: landmark fit larger than the representative set");
  }
  landmark_model_.reset();
  landmark_vectors_.clear();
  if (last_fit_size_ > 0) {
    // Landmark regime: refit on exactly the representatives the last fit
    // saw; the full matrix never exists here.
    fit_landmarks({vectors.begin(),
                   vectors.begin() +
                       static_cast<std::ptrdiff_t>(last_fit_size_)});
    delta_ = linalg::Matrix();
  } else {
    // The state the incremental growth would have left the matrix in:
    // empty below two points (embed() short-circuits there without
    // building one), the full matrix otherwise.
    delta_ = vectors.size() >= 2 ? mds::distance_matrix(vectors)
                                 : linalg::Matrix();
  }
}

mds::Point2 MapEmbedder::place_against_landmarks(
    const std::vector<double>& v) const {
  std::vector<double> d(landmark_vectors_.size(), 0.0);
  for (std::size_t j = 0; j < landmark_vectors_.size(); ++j) {
    d[j] = linalg::euclidean_distance(landmark_vectors_[j], v);
  }
  return landmark_align_.apply(landmark_model_->place(d));
}

void MapEmbedder::fit_landmarks(
    const std::vector<std::vector<double>>& vectors) {
  landmark_model_ = mds::fit_landmark_mds(vectors, landmark_count_);
  landmark_vectors_.clear();
  landmark_vectors_.reserve(landmark_model_->landmark_indices.size());
  for (std::size_t idx : landmark_model_->landmark_indices) {
    landmark_vectors_.push_back(vectors[idx]);
  }
}

void MapEmbedder::embed_landmark_incremental(
    const std::vector<std::vector<double>>& vectors) {
  const std::size_t n = vectors.size();
  const bool refit =
      !landmark_model_.has_value() ||
      static_cast<double>(n) >=
          kLandmarkRefreshFactor * static_cast<double>(last_fit_size_);
  if (!refit) {
    // O(new * k): triangulate only the points that arrived since the last
    // update. Existing positions (and the stress estimate) are untouched
    // — the contract the trajectory model and the flatness bench rely on.
    for (std::size_t i = positions_.size(); i < n; ++i) {
      positions_.push_back(place_against_landmarks(vectors[i]));
    }
    return;
  }
  // Refit: new maxmin landmark selection and exact classical-MDS solve
  // over k points, then every point re-placed. Triggered geometrically
  // (n >= kLandmarkRefreshFactor * last fit size), so total refit work is
  // O(n) amortized.
  mds::Embedding prev = positions_;
  fit_landmarks(vectors);
  landmark_align_ = mds::ProcrustesTransform{};
  positions_.clear();
  positions_.reserve(n);
  for (const auto& v : vectors) {
    positions_.push_back(place_against_landmarks(v));
  }
  if (prev.size() >= 2) {
    mds::Embedding head(
        positions_.begin(),
        positions_.begin() + static_cast<std::ptrdiff_t>(prev.size()));
    auto align = mds::procrustes_align(
        head, prev, {.allow_reflection = true, .allow_scaling = false});
    landmark_align_ = align.transform;
    positions_ = align.transform.apply(positions_);
  }
  if (last_fit_size_ > 0) ++rebuilds_;
  last_fit_size_ = n;
  // Stress audited over the landmark subset only — O(k^2), the full
  // matrix never exists in this regime.
  mds::Embedding landmark_positions;
  landmark_positions.reserve(landmark_model_->landmark_indices.size());
  for (std::size_t idx : landmark_model_->landmark_indices) {
    landmark_positions.push_back(positions_[idx]);
  }
  stress_ = mds::normalized_stress(mds::distance_matrix(landmark_vectors_),
                                   landmark_positions);
  delta_ = linalg::Matrix();  // drop any small-regime matrix for good
}

}  // namespace stayaway::core
