#include "monitor/representative.hpp"

#include <limits>
#include <utility>

#include "linalg/matrix.hpp"
#include "util/check.hpp"

namespace stayaway::monitor {

RepresentativeSet::RepresentativeSet(double epsilon, std::size_t max_size)
    : epsilon_(epsilon), max_size_(max_size) {
  SA_REQUIRE(epsilon >= 0.0, "epsilon must be non-negative");
}

Assignment RepresentativeSet::assign(const std::vector<double>& v) {
  SA_REQUIRE(!v.empty(), "cannot assign an empty vector");
  if (!reps_.empty()) {
    SA_REQUIRE(v.size() == reps_.front().size(),
               "all vectors must share a dimension");
  }
  ++observed_;

  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < reps_.size(); ++i) {
    double d = linalg::euclidean_distance(reps_[i], v);
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  if (!reps_.empty() && (best_dist <= epsilon_ || full())) {
    ++weights_[best];
    return {best, false, best_dist};
  }
  // Dedup-threshold consistency: a new representative is only legal when
  // every existing one sits strictly beyond epsilon (and the set has room).
  SA_CHECK(reps_.empty() || (best_dist > epsilon_ && !full()),
           "created a representative inside the dedup threshold");
  reps_.push_back(v);
  weights_.push_back(1);
  return {reps_.size() - 1, true, 0.0};
}

const std::vector<double>& RepresentativeSet::representative(std::size_t i) const {
  SA_REQUIRE(i < reps_.size(), "representative index out of range");
  return reps_[i];
}

std::size_t RepresentativeSet::weight(std::size_t i) const {
  SA_REQUIRE(i < weights_.size(), "representative index out of range");
  return weights_[i];
}

void RepresentativeSet::save_state(util::StateWriter& w) const {
  w.u64("representatives", reps_.size());
  for (const auto& rep : reps_) w.reals("rep", rep);
  std::vector<std::uint64_t> weights(weights_.begin(), weights_.end());
  w.u64s("weights", weights);
  w.u64("observed", observed_);
}

void RepresentativeSet::load_state(util::StateReader& r) {
  std::uint64_t n = r.u64("representatives");
  std::vector<std::vector<double>> reps;
  reps.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) reps.push_back(r.reals("rep"));
  std::vector<std::uint64_t> weights = r.u64s("weights");
  if (weights.size() != reps.size()) {
    throw util::StateCodecError(
        "representative state: weight/vector count mismatch");
  }
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].size() != reps.front().size()) {
      throw util::StateCodecError(
          "representative state: inconsistent vector dimensions");
    }
  }
  reps_ = std::move(reps);
  weights_.assign(weights.begin(), weights.end());
  observed_ = static_cast<std::size_t>(r.u64("observed"));
}

}  // namespace stayaway::monitor
