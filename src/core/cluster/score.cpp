#include "core/cluster/score.hpp"

#include <algorithm>
#include <cmath>

#include "core/statespace.hpp"

namespace stayaway::core::cluster {

namespace {

double clamp_margin(double margin) {
  return std::clamp(margin, -kNeutralMargin, kNeutralMargin);
}

}  // namespace

HostSnapshot snapshot_host(const HostPipeline& pipeline) {
  HostSnapshot snap;
  const std::vector<PeriodRecord>& records = pipeline.records();
  if (!records.empty()) {
    const PeriodRecord& last = records.back();
    snap.violating_now = last.violation_observed || last.violation_predicted;
  }

  const StayAwayMapper* mapper = pipeline.stay_away_mapper();
  if (mapper == nullptr || records.empty()) {
    snap.safety_margin = kNeutralMargin;
    return snap;
  }
  const StateSpace& space = mapper->space();
  double scale = space.scale();
  if (!(scale > 0.0) || !std::isfinite(scale)) {
    // Degenerate map (all points coincident, or no points): the geometry
    // claims nothing, so the host scores like a cold one.
    snap.safety_margin = kNeutralMargin;
    return snap;
  }

  const mds::Point2& here = records.back().state;
  const std::vector<ViolationRange>& ranges = space.violation_ranges();
  snap.has_geometry = !ranges.empty();
  if (snap.has_geometry && std::isfinite(here.x) && std::isfinite(here.y)) {
    double nearest = kNeutralMargin * scale;
    for (const ViolationRange& range : ranges) {
      double d = std::hypot(here.x - range.center.x, here.y - range.center.y) -
                 range.radius;
      nearest = std::min(nearest, d);
    }
    snap.safety_margin = clamp_margin(nearest / scale);
  } else {
    snap.safety_margin = kNeutralMargin;
  }

  // Mean displacement per period over the recent window, skipping steps
  // with non-finite endpoints (quarantined periods can carry NaN states).
  std::size_t first =
      records.size() > kStepWindow ? records.size() - kStepWindow : 1;
  double total = 0.0;
  std::size_t steps = 0;
  for (std::size_t i = first; i < records.size(); ++i) {
    const mds::Point2& a = records[i - 1].state;
    const mds::Point2& b = records[i].state;
    double d = std::hypot(b.x - a.x, b.y - a.y);
    if (std::isfinite(d)) {
      total += d;
      ++steps;
    }
  }
  if (steps > 0) {
    snap.step_length = std::min(total / static_cast<double>(steps) / scale,
                                kNeutralMargin);
  }
  return snap;
}

double interference_score(const HostSnapshot& snap, double vm_footprint) {
  double score = vm_footprint * snap.step_length - snap.safety_margin;
  if (snap.violating_now) score += kViolationPenalty;
  return score;
}

}  // namespace stayaway::core::cluster
