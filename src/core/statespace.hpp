// The mapped state space: labelled 2-D states plus violation-range
// geometry (§3.2.1–3.2.2 of the paper).
//
// States are indexed in lock-step with the monitor's RepresentativeSet:
// state i is the embedding of representative i. Labels are evidence
// based: every period contributes a (visit, violated?) observation to its
// representative, and a state counts as a violation-state once a
// sufficient fraction of its visits saw a QoS violation. This keeps one
// unlucky coincidence (a violation reported one period late, while the
// system already sat on an otherwise-safe state) from permanently
// poisoning a frequently visited safe state. Template seeding uses
// force_violation(), which is sticky by design — imported labels carry
// their previous run's evidence.
#pragma once

#include <optional>
#include <vector>

#include "mds/point.hpp"
#include "util/statecodec.hpp"

namespace stayaway::core {

enum class StateLabel {
  Safe,
  Violation,
};

struct ViolationRange {
  std::size_t state = 0;  // index of the violation-state
  mds::Point2 center;
  double radius = 0.0;
};

class StateSpace {
 public:
  /// Fraction of violating visits at which a state becomes a
  /// violation-state (given at least one violating visit).
  static constexpr double kViolationEvidenceFraction = 0.3;

  /// Appends a state (paired with a newly created representative). A
  /// Violation initial label behaves like force_violation().
  void add_state(StateLabel label);

  /// Records one visit of state i and whether QoS was violated during it.
  void observe_visit(std::size_t i, bool violated);

  /// Marks state i as a violation-state unconditionally (template import;
  /// irreversible).
  void force_violation(std::size_t i);

  /// Replaces all positions after a re-embedding. Size must match.
  void sync_positions(const mds::Embedding& positions);

  std::size_t size() const { return labels_cache_size(); }
  StateLabel label(std::size_t i) const;
  const mds::Point2& position(std::size_t i) const;
  const mds::Embedding& positions() const { return positions_; }

  // sa-lint: test-observer(tests check how visits are labelled)
  std::size_t visits(std::size_t i) const;
  // sa-lint: test-observer(tests check how visits are labelled)
  std::size_t violating_visits(std::size_t i) const;

  std::size_t violation_count() const;
  // sa-lint: test-observer(tests check the label split)
  std::size_t safe_count() const { return size() - violation_count(); }

  /// Scale parameter c: the median of the coordinate ranges of the map.
  double scale() const;

  /// Distance from `from` to the nearest safe-state; nullopt if none exist.
  std::optional<double> nearest_safe_distance(const mds::Point2& from) const;

  /// Violation ranges with radii R = d * exp(-d^2 / (2 c^2)). A violation
  /// with no safe neighbour yet gets radius 0 (nothing is known about its
  /// surroundings), as does a degenerate map (all points coincident: the
  /// Rayleigh scale is meaningless, so nothing beyond the states
  /// themselves is claimed). The result is cached: it is rebuilt lazily
  /// after a mutation that can change the geometry (add_state,
  /// force_violation, a label-flipping observe_visit, a position-changing
  /// sync_positions), so the predictor's per-candidate queries stop
  /// recomputing labels, nearest-safe distances and radii from scratch.
  const std::vector<ViolationRange>& violation_ranges() const;

  /// True when p lies inside any violation range, or within `slack` of a
  /// violation-state itself (an exact revisit predicts a violation even
  /// before a range can be computed). Served from the cached ranges.
  bool in_violation_region(const mds::Point2& p, double slack = 1e-9) const;

  /// Observability counters: mutations that dirtied the range cache, and
  /// lazy rebuilds actually performed. rebuilds <= invalidations; the gap
  /// is the work the cache saved.
  std::size_t cache_invalidations() const { return invalidations_; }
  std::size_t cache_rebuilds() const { return rebuilds_; }

  /// Snapshot of states, evidence counters and positions (DESIGN.md
  /// §17). The violation-range cache is deliberately not captured:
  /// a load leaves it dirty and the first query re-derives
  /// byte-identical ranges from the restored geometry (the rebuild
  /// counter may therefore run ahead of the uninterrupted run's —
  /// telemetry only, never decisions).
  void persist(util::StateIO& io);

 private:
  std::size_t labels_cache_size() const { return forced_.size(); }
  void rebuild_ranges() const;

  std::vector<bool> forced_;            // force_violation applied
  std::vector<std::size_t> visits_;     // observations per state
  std::vector<std::size_t> violating_;  // violating observations per state
  mds::Embedding positions_;

  // Lazily rebuilt violation-range cache. Mutators set the dirty flag;
  // const queries rebuild at most once per mutation. Not thread-safe —
  // the state space belongs to the single control thread.
  mutable std::vector<ViolationRange> ranges_cache_;
  mutable bool ranges_dirty_ = true;
  std::size_t invalidations_ = 0;
  mutable std::size_t rebuilds_ = 0;
};

}  // namespace stayaway::core
