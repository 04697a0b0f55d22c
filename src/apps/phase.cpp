#include "apps/phase.hpp"

#include <utility>

#include "util/check.hpp"

namespace stayaway::apps {

PhaseMachine::PhaseMachine(std::vector<Phase> phases, bool loop)
    : phases_(std::move(phases)), loop_(loop) {
  SA_REQUIRE(!phases_.empty(), "phase machine needs at least one phase");
  for (const auto& p : phases_) {
    SA_REQUIRE(p.duration_s > 0.0, "phase durations must be positive");
  }
}

bool PhaseMachine::finished() const { return done_; }

const Phase& PhaseMachine::current() const {
  SA_REQUIRE(!done_, "no current phase after completion");
  return phases_[index_];
}

void PhaseMachine::advance(double dt, double progress_factor) {
  SA_REQUIRE(dt >= 0.0, "time step must be non-negative");
  SA_REQUIRE(progress_factor >= 0.0, "progress factor must be non-negative");
  if (done_) return;
  double remaining = dt * progress_factor;
  while (remaining > 0.0) {
    double needed = phases_[index_].duration_s - elapsed_in_phase_;
    if (remaining < needed) {
      elapsed_in_phase_ += remaining;
      return;
    }
    remaining -= needed;
    elapsed_in_phase_ = 0.0;
    ++index_;
    if (index_ == phases_.size()) {
      ++cycles_;
      index_ = 0;
      if (!loop_) {
        done_ = true;
        return;
      }
    }
  }
}

}  // namespace stayaway::apps
