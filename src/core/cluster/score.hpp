// Deterministic interference scoring for the cluster coordinator
// (DESIGN.md §18). A score ranks (batch VM, host) pairs by how much
// interference pressure placing that VM on that host would add, derived
// purely from state the per-host pipeline already maintains: the host's
// embedded trajectory and its violation-range geometry (§3.2). Grounded
// in the cluster-scale scoring mechanisms of arXiv 2407.12248 and
// C-Koordinator (arXiv 2507.18005): score every pair, place load where
// the score says it is safe.
//
// Everything here is a pure function of pipeline state — no RNG, no
// clocks — so coordinator decisions replay byte-identically.
#pragma once

#include <cstddef>

#include "core/pipeline.hpp"

namespace stayaway::core::cluster {

/// The slice of one host's pipeline state the scorer consumes, extracted
/// once per coordinator step through the read-only fleet seam.
struct HostSnapshot {
  /// The host's map knows at least one violation range.
  bool has_geometry = false;
  /// Signed distance (in map units / scale) from the host's current state
  /// to the boundary of its nearest violation range: positive = safe
  /// territory, negative = inside a range. Clamped to ±kNeutralMargin.
  /// Hosts without geometry report +kNeutralMargin (nothing known to
  /// avoid).
  double safety_margin = 0.0;
  /// Mean per-period displacement of the trajectory over the recent
  /// window, normalized by the map scale — the observed contribution of
  /// the host's current load mix to state movement.
  double step_length = 0.0;
  /// The most recent period observed or predicted a QoS violation.
  bool violating_now = false;
};

/// Margin assigned to hosts whose map has no violation geometry yet, and
/// the clamp magnitude for hosts that do. A cold host scores comfortably
/// safe; a host buried inside a violation range cannot score worse than
/// the clamp, keeping scores comparable across maps of different scales.
inline constexpr double kNeutralMargin = 2.0;

/// Additive penalty while the host is currently violating: a violating
/// host is hot for any VM regardless of geometry.
inline constexpr double kViolationPenalty = 1.0;

/// Trajectory window (periods) the step length is averaged over.
inline constexpr std::size_t kStepWindow = 8;

/// Extracts the scorer's view of one host. `pipeline` may lack a
/// Stay-Away mapper (baseline policies, custom stages): such hosts report
/// no geometry and zero step length — neutral, deterministic.
HostSnapshot snapshot_host(const HostPipeline& pipeline);

/// The interference score of placing a VM with demand footprint
/// `vm_footprint` on the host described by `snap`:
///
///   score = vm_footprint * step_length - safety_margin
///           + (violating_now ? kViolationPenalty : 0)
///
/// Negative = the host's trajectory sits in safe territory with room for
/// the VM's displacement contribution; positive = hot. Lower is better.
double interference_score(const HostSnapshot& snap, double vm_footprint);

}  // namespace stayaway::core::cluster
