#include "monitor/health.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "util/check.hpp"

namespace stayaway::monitor {

SampleQuarantine::SampleQuarantine(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      last_good_(bounds_.size(), 0.0),
      staleness_(bounds_.size(), 0) {
  SA_REQUIRE(!bounds_.empty(), "quarantine needs a non-empty layout");
  for (double b : bounds_) {
    SA_REQUIRE(std::isfinite(b) && b > 0.0,
               "quarantine upper bounds must be finite and positive");
  }
}

SampleQuarantine::Admit SampleQuarantine::admit(double time,
                                                std::uint64_t sequence) {
  if (sequence == seen_below_) {
    // In order: advance the watermark, then over any contiguous run of
    // early arrivals it now reaches.
    ++seen_below_;
    while (!seen_above_.empty() && *seen_above_.begin() == seen_below_) {
      seen_above_.erase(seen_above_.begin());
      ++seen_below_;
    }
  } else if (sequence < seen_below_ || !seen_above_.insert(sequence).second) {
    ++total_duplicates_;
    return Admit::Duplicate;
  }
  if (any_admitted_ && time < newest_time_) {
    ++total_late_;
    return Admit::Late;
  }
  newest_time_ = time;
  any_admitted_ = true;
  return Admit::Ok;
}

SampleHealth SampleQuarantine::validate(std::vector<double>& values) {
  SA_REQUIRE(values.size() == bounds_.size(),
             "measurement does not match the quarantine layout");
  SampleHealth health;
  health.dimension = values.size();
  for (std::size_t i = 0; i < values.size(); ++i) {
    double v = values[i];
    // The comparison form rejects NaN too: NaN >= 0.0 is false.
    bool good = std::isfinite(v) && v >= 0.0 && v <= bounds_[i];
    if (good) {
      last_good_[i] = v;
      staleness_[i] = 0;
      continue;
    }
    values[i] = last_good_[i];
    ++staleness_[i];
    ++health.quarantined;
    ++total_quarantined_;
    health.max_staleness = std::max(health.max_staleness, staleness_[i]);
  }
  return health;
}

void SampleQuarantine::persist(util::StateIO& io) {
  io.reals("last_good", last_good_);
  io.u64s("staleness", staleness_);
  if (io.loading() && (last_good_.size() != bounds_.size() ||
                       staleness_.size() != bounds_.size())) {
    throw util::StateCodecError("quarantine state: layout dimension mismatch");
  }
  io.u64("total_quarantined", total_quarantined_);
  io.u64("total_late", total_late_);
  io.u64("total_duplicates", total_duplicates_);
  io.real("newest_time", newest_time_);
  io.boolean("any_admitted", any_admitted_);
  io.u64("seen_below", seen_below_);
  std::vector<std::uint64_t> above(seen_above_.begin(), seen_above_.end());
  io.u64s("seen_above", above);
  if (io.loading()) {
    if ((!above.empty() && above.front() <= seen_below_) ||
        std::adjacent_find(above.begin(), above.end(),
                           std::greater_equal<>()) != above.end()) {
      throw util::StateCodecError(
          "quarantine state: seen sequences not strictly above the "
          "watermark");
    }
    seen_above_ = std::set<std::uint64_t>(above.begin(), above.end());
  }
}

}  // namespace stayaway::monitor
