// Map embedder: keeps the 2-D layout of the representative set up to
// date across periods.
//
// The layout is recomputed only when the representative set grows (§4's
// dedup means most periods reuse an existing representative). New points
// are seeded by incremental placement and the whole configuration is then
// polished with SMACOF warm-started from the previous layout, finally
// Procrustes-aligned onto it so the map does not rotate or flip between
// periods — the trajectory model depends on directions staying put.
//
// Hot-path engineering: the dissimilarity matrix is grown by one
// row/column per new representative (entry-wise identical to a full
// rebuild, but O(growth * n) instead of O(n^2)), and when the warm-started
// solve already lands below `warm_skip_stress` the redundant cold SMACOF
// run is skipped entirely. A shrinking representative set (template reuse
// loading a smaller map, compaction) drops all incremental state and
// re-embeds from scratch instead of failing.
//
// LandmarkIncremental is the streaming-ingestion regime (DESIGN.md §15):
// past landmark_count points, each update only *places* the new points
// against a frozen landmark model — O(new * k), no O(n^2) matrix at all —
// and the model is refit (with Procrustes re-alignment) only when the set
// has doubled since the last fit, so refit cost amortizes to O(1) per
// point.
#pragma once

#include <optional>

#include "core/config.hpp"
#include "linalg/matrix.hpp"
#include "mds/landmark.hpp"
#include "mds/point.hpp"
#include "mds/procrustes.hpp"
#include "monitor/representative.hpp"
#include "util/statecodec.hpp"

namespace stayaway::core {

class MapEmbedder {
 public:
  /// warm_skip_stress: normalized stress-1 below which a warm-started
  /// SMACOF solution is accepted without the verifying cold run. 0 keeps
  /// the historical behaviour (always run both, keep the better).
  explicit MapEmbedder(EmbedMethod method, std::size_t landmark_count = 24,
                       double warm_skip_stress = 0.0);

  /// Brings the embedding in sync with the representative set and returns
  /// it. Positions are stable (not recomputed) while the set is unchanged.
  const mds::Embedding& update(const monitor::RepresentativeSet& reps);

  const mds::Embedding& positions() const { return positions_; }

  /// Normalized stress-1 of the current layout (0 when fewer than two
  /// points). §5: persistent high stress signals that 2-D is too tight.
  double stress() const { return stress_; }

  /// Cumulative SMACOF iterations spent (overhead accounting, §4).
  std::size_t total_iterations() const { return total_iterations_; }

  /// Cold SMACOF runs skipped because the warm start already met the
  /// stress bound (overhead accounting).
  std::size_t cold_runs_skipped() const { return cold_runs_skipped_; }

  /// Full matrix rebuilds forced by a shrinking representative set.
  std::size_t rebuilds() const { return rebuilds_; }

  /// Representative-set size at the most recent landmark-model fit
  /// (LandmarkIncremental only; 0 before the first fit).
  // sa-lint: test-observer(tests check refit points and their restore)
  std::size_t landmark_fit_size() const { return last_fit_size_; }

  /// Snapshot of layout, stress and overhead counters, plus the landmark
  /// fit size and alignment under LandmarkIncremental. A load
  /// rebuilds the derived caches from the restored representative
  /// vectors: the dissimilarity matrix (entry-wise identical to the
  /// incrementally grown one, refresh_delta's contract) or, in the
  /// landmark regime, the landmark model refit on the representatives
  /// the last fit saw (the set is append-only, so the refit is
  /// bit-exact). Either way the next update proceeds exactly as the
  /// uninterrupted run's would.
  /// `vectors` is the restored representative set (read on load only).
  void persist(util::StateIO& io,
               const std::vector<std::vector<double>>& vectors);

 private:
  void embed(const monitor::RepresentativeSet& reps);
  /// Grows (or builds) the cached dissimilarity matrix to cover `vectors`.
  const linalg::Matrix& refresh_delta(
      const std::vector<std::vector<double>>& vectors);
  /// Fits the landmark model (and its landmark vectors) over `vectors`.
  void fit_landmarks(const std::vector<std::vector<double>>& vectors);
  /// LandmarkIncremental large-n path: place new points only, refit the
  /// landmark model geometrically.
  void embed_landmark_incremental(
      const std::vector<std::vector<double>>& vectors);
  /// Triangulates one high-dimensional vector against the fitted model.
  mds::Point2 place_against_landmarks(const std::vector<double>& v) const;

  EmbedMethod method_;
  std::size_t landmark_count_;
  double warm_skip_stress_;
  mds::Embedding positions_;
  linalg::Matrix delta_;  // dissimilarities over the embedded vectors
  double stress_ = 0.0;
  std::size_t total_iterations_ = 0;
  std::size_t cold_runs_skipped_ = 0;
  std::size_t rebuilds_ = 0;
  // --- LandmarkIncremental state (DESIGN.md §15). -----------------------
  std::optional<mds::LandmarkModel> landmark_model_;
  /// The landmarks' high-dimensional vectors, in model order (new points
  /// measure their distances against these).
  std::vector<std::vector<double>> landmark_vectors_;
  /// Rigid transform from the current model's frame onto the map frame
  /// (identity until the first re-alignment): place() results live in the
  /// model frame, the map must not rotate or flip across refits.
  mds::ProcrustesTransform landmark_align_;
  std::size_t last_fit_size_ = 0;
};

}  // namespace stayaway::core
