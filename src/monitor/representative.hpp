// Representative-sample reduction (§4 of the paper).
//
// "The SMACOF algorithm ... can become computationally expensive as the
// number of samples increase. ... we significantly reduce this overhead
// by choosing one representative sample from the set of samples that are
// very close to each other (Euclidean distance) and discarding other
// similar samples."
//
// Each incoming normalized vector is assigned to an existing
// representative when one lies within epsilon; otherwise it becomes a new
// representative. The embedding then only ever sees representatives.
#pragma once

#include <cstddef>
#include <vector>

#include "util/statecodec.hpp"

namespace stayaway::monitor {

struct Assignment {
  std::size_t representative = 0;  // index into the representative set
  bool is_new = false;             // true when a new representative was added
  double distance = 0.0;           // distance to the chosen representative
};

class RepresentativeSet {
 public:
  /// epsilon: merge radius in the normalized metric space.
  /// max_size: hard bound on the number of representatives — the
  /// embedding solve is O(n^2..n^3) in this count, so a production
  /// deployment must not let a drifting workload grow it without limit.
  /// Once full, every sample is assigned to its nearest representative
  /// regardless of epsilon. 0 means unbounded.
  explicit RepresentativeSet(double epsilon, std::size_t max_size = 0);

  /// Assigns a vector, inserting a new representative if needed. All
  /// vectors must share a dimension (fixed by the first call).
  Assignment assign(const std::vector<double>& v);

  std::size_t size() const { return reps_.size(); }
  const std::vector<double>& representative(std::size_t i) const;
  const std::vector<std::vector<double>>& all() const { return reps_; }

  /// How many raw samples were merged into representative i (>= 1).
  std::size_t weight(std::size_t i) const;

  /// Total raw samples observed.
  std::size_t total_observed() const { return observed_; }

  double epsilon() const { return epsilon_; }
  std::size_t max_size() const { return max_size_; }
  bool full() const { return max_size_ > 0 && reps_.size() >= max_size_; }

  /// Snapshot of the representative vectors, merge weights and observed
  /// count (DESIGN.md §17). load_state targets a freshly constructed set
  /// with the same epsilon/max_size configuration.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  double epsilon_;
  std::size_t max_size_;
  std::vector<std::vector<double>> reps_;
  std::vector<std::size_t> weights_;
  std::size_t observed_ = 0;
};

}  // namespace stayaway::monitor
