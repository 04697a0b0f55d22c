// Phase machine shared by the batch application models.
//
// §1 of the paper: "A phase change is defined as a change in the major
// share of resource consumed by an application." Batch apps are modelled
// as a sequence of phases, each with a demand profile and a nominal
// duration at full speed; contention stretches a phase's wall-clock time.
#pragma once

#include <string>
#include <vector>

#include "sim/resource.hpp"

namespace stayaway::apps {

struct Phase {
  std::string name;
  sim::ResourceDemand demand;
  /// Seconds the phase takes when running unthrottled at full allocation.
  double duration_s = 1.0;
};

class PhaseMachine {
 public:
  /// If loop is true the sequence repeats until externally bounded; else
  /// the machine finishes after the last phase.
  PhaseMachine(std::vector<Phase> phases, bool loop);

  bool finished() const;
  const Phase& current() const;
  // sa-lint: test-observer(tests check phase roll-over)
  std::size_t cycles_completed() const { return cycles_; }

  /// Advances phase-progress by dt * progress_factor seconds of effective
  /// work; rolls over to subsequent phases as they complete.
  void advance(double dt, double progress_factor);

 private:
  std::vector<Phase> phases_;
  bool loop_;
  std::size_t index_ = 0;
  std::size_t cycles_ = 0;
  double elapsed_in_phase_ = 0.0;  // effective (full-speed) seconds
  bool done_ = false;
};

}  // namespace stayaway::apps
