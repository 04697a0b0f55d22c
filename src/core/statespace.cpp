#include "core/statespace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "stats/rayleigh.hpp"
#include "util/check.hpp"

namespace stayaway::core {

namespace {

bool all_finite(const mds::Embedding& points) {
  for (const auto& p : points) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) return false;
  }
  return true;
}

}  // namespace

void StateSpace::add_state(StateLabel label) {
  forced_.push_back(label == StateLabel::Violation);
  visits_.push_back(0);
  violating_.push_back(0);
  positions_.emplace_back();
  ranges_dirty_ = true;
  ++invalidations_;
}

void StateSpace::observe_visit(std::size_t i, bool violated) {
  SA_REQUIRE(i < forced_.size(), "state index out of range");
  StateLabel before = label(i);
  ++visits_[i];
  if (violated) ++violating_[i];
  SA_CHECK(violating_[i] <= visits_[i],
           "violating visits cannot exceed total visits");
  // Most visits only move the evidence fraction without crossing the
  // threshold; the range cache survives those.
  if (label(i) != before) {
    ranges_dirty_ = true;
    ++invalidations_;
  }
}

void StateSpace::force_violation(std::size_t i) {
  SA_REQUIRE(i < forced_.size(), "state index out of range");
  if (!forced_[i] && label(i) != StateLabel::Violation) {
    ranges_dirty_ = true;
    ++invalidations_;
  }
  forced_[i] = true;
}

void StateSpace::sync_positions(const mds::Embedding& positions) {
  SA_REQUIRE(positions.size() == forced_.size(),
             "positions must cover every state");
  SA_INVARIANT(all_finite(positions),
               "state coordinates must be finite after re-embedding");
  // The embedder returns the same layout whenever the representative set
  // is unchanged, which is the common case — keep the cache warm then.
  if (positions == positions_) return;
  positions_ = positions;
  ranges_dirty_ = true;
  ++invalidations_;
}

StateLabel StateSpace::label(std::size_t i) const {
  SA_REQUIRE(i < forced_.size(), "state index out of range");
  if (forced_[i]) return StateLabel::Violation;
  if (violating_[i] == 0) return StateLabel::Safe;
  double fraction = static_cast<double>(violating_[i]) /
                    static_cast<double>(visits_[i]);
  return fraction >= kViolationEvidenceFraction ? StateLabel::Violation
                                                : StateLabel::Safe;
}

const mds::Point2& StateSpace::position(std::size_t i) const {
  SA_REQUIRE(i < positions_.size(), "state index out of range");
  return positions_[i];
}

std::size_t StateSpace::visits(std::size_t i) const {
  SA_REQUIRE(i < visits_.size(), "state index out of range");
  return visits_[i];
}

std::size_t StateSpace::violating_visits(std::size_t i) const {
  SA_REQUIRE(i < violating_.size(), "state index out of range");
  return violating_[i];
}

std::size_t StateSpace::violation_count() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < forced_.size(); ++i) {
    if (label(i) == StateLabel::Violation) ++n;
  }
  return n;
}

double StateSpace::scale() const {
  return mds::median_coordinate_range(positions_);
}

std::optional<double> StateSpace::nearest_safe_distance(
    const mds::Point2& from) const {
  double best = std::numeric_limits<double>::infinity();
  bool found = false;
  for (std::size_t i = 0; i < forced_.size(); ++i) {
    if (label(i) != StateLabel::Safe) continue;
    best = std::min(best, mds::distance(from, positions_[i]));
    found = true;
  }
  if (!found) return std::nullopt;
  return best;
}

void StateSpace::rebuild_ranges() const {
  ++rebuilds_;
  ranges_cache_.clear();
  double c = scale();
  for (std::size_t i = 0; i < forced_.size(); ++i) {
    if (label(i) != StateLabel::Violation) continue;
    ViolationRange range;
    range.state = i;
    range.center = positions_[i];
    auto d = nearest_safe_distance(positions_[i]);
    // A degenerate map (c <= 0, or a safe neighbour at distance 0 because
    // every point is coincident) gets a zero radius instead of tripping
    // rayleigh_radius's scale precondition.
    range.radius = (d.has_value() && *d > 0.0 && c > 0.0)
                       ? stats::rayleigh_radius(*d, c)
                       : 0.0;
    SA_CHECK(std::isfinite(range.radius) && range.radius >= 0.0,
             "violation radius R = d*exp(-d^2/2c^2) must be finite and >= 0");
    ranges_cache_.push_back(range);
  }
  // The cache must cover exactly the violation-states: one range per
  // violation, none for safe states.
  SA_INVARIANT(ranges_cache_.size() == violation_count(),
               "violation-range cache out of sync with the labels");
  ranges_dirty_ = false;
}

const std::vector<ViolationRange>& StateSpace::violation_ranges() const {
  if (ranges_dirty_) rebuild_ranges();
  return ranges_cache_;
}

bool StateSpace::in_violation_region(const mds::Point2& p, double slack) const {
  for (const auto& range : violation_ranges()) {
    double d = mds::distance(p, range.center);
    if (d <= range.radius + slack) return true;
  }
  return false;
}

void StateSpace::persist(util::StateIO& io) {
  io.u64s("forced", forced_);
  io.u64s("visits", visits_);
  io.u64s("violating", violating_);
  io.points("positions", positions_);
  io.u64("cache_invalidations", invalidations_);
  io.u64("cache_rebuilds", rebuilds_);
  if (!io.loading()) return;
  if (visits_.size() != forced_.size() ||
      violating_.size() != forced_.size() ||
      positions_.size() != forced_.size()) {
    throw util::StateCodecError("statespace state: per-state vector "
                                "lengths disagree");
  }
  ranges_cache_.clear();
  ranges_dirty_ = true;
}

}  // namespace stayaway::core
