#include "core/trajectory.hpp"

#include <cmath>

#include "util/check.hpp"

namespace stayaway::core {

namespace {
constexpr double kPi = std::numbers::pi;

// Paranoid audit: a non-empty histogram's probability masses must sum to
// 1 — inverse-transform sampling silently skews if normalization drifts.
bool mass_sums_to_one(const stats::Histogram& h) {
  if (h.empty()) return false;
  double acc = 0.0;
  for (std::size_t i = 0; i < h.bins(); ++i) acc += h.mass(i);
  return std::abs(acc - 1.0) <= 1e-9;
}

}  // namespace

TrajectoryModel::TrajectoryModel(double max_step, std::size_t bins)
    // Step lengths concentrate near zero (states mostly linger or move a
    // little), so the step histogram gets 4x the angular resolution: with
    // the default range of a normalized space, plain `bins` would be
    // coarser than a typical step and quantize every mode to bin 0.
    : steps_(0.0, max_step, bins * 4), angles_(-kPi, kPi, bins) {
  SA_REQUIRE(max_step > 0.0, "max step must be positive");
}

void TrajectoryModel::observe(const mds::Point2& from, const mds::Point2& to) {
  steps_.add(mds::distance(from, to));
  angles_.add(mds::step_angle(from, to));
  ++observations_;
}

void TrajectoryModel::sample_future(const mds::Point2& current,
                                    std::size_t count, Rng& rng,
                                    Samplers& samplers,
                                    std::vector<mds::Point2>& out) const {
  SA_REQUIRE(observations_ > 0, "trajectory model has no observations");
  SA_INVARIANT(mass_sums_to_one(steps_),
               "step-length histogram masses must sum to 1");
  SA_INVARIANT(mass_sums_to_one(angles_),
               "angle histogram masses must sum to 1");
  samplers.step.reset(steps_);
  samplers.angle.reset(angles_);
  out.clear();
  for (std::size_t i = 0; i < count; ++i) {
    double d = samplers.step.sample(rng);
    double a = samplers.angle.sample(rng);
    out.push_back(mds::step_from(current, d, a));
  }
}

namespace {

/// `<key>_total` then the raw bin counts, restored verbatim. Writing
/// reads the counts in place (no copy).
void persist_histogram(util::StateIO& io, const std::string& key,
                       stats::Histogram& h) {
  double total = h.total_weight();
  io.real(key + "_total", total);
  if (!io.loading()) return io.write_reals(key, h.raw_counts());
  std::vector<double> counts;
  io.reals(key, counts);
  if (counts.size() != h.raw_counts().size()) {
    throw util::StateCodecError("trajectory state: " + key +
                                " bin count mismatch");
  }
  h.restore(counts, total);
}

}  // namespace

void TrajectoryModel::persist(util::StateIO& io) {
  io.u64("observations", observations_);
  persist_histogram(io, "steps", steps_);
  persist_histogram(io, "angles", angles_);
}

void ModeTrajectories::persist(util::StateIO& io) {
  io.expect("modes", models_.size(),
            "trajectory state: execution-mode count mismatch");
  for (auto& m : models_) m.persist(io);
}

ModeTrajectories::ModeTrajectories(double max_step, std::size_t bins) {
  models_.reserve(monitor::kExecutionModeCount);
  for (std::size_t i = 0; i < monitor::kExecutionModeCount; ++i) {
    models_.emplace_back(max_step, bins);
  }
}

TrajectoryModel& ModeTrajectories::model(monitor::ExecutionMode mode) {
  return models_[static_cast<std::size_t>(mode)];
}

const TrajectoryModel& ModeTrajectories::model(
    monitor::ExecutionMode mode) const {
  return models_[static_cast<std::size_t>(mode)];
}

}  // namespace stayaway::core
