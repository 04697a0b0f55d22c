// Throttle governor — "What Action to take and When to Stop?" (§3.3).
//
// Pausing is triggered by a predicted or observed violation. Resuming is
// governed by the adaptive distance threshold beta over consecutive
// sensitive-only states: small movement means the sensitive app is still
// in the contending phase; movement beyond beta signals a phase or
// workload change worth trying a resume on. A resume that immediately
// re-violates bumps beta; a long quiet pause triggers a randomized
// anti-starvation resume.
#pragma once

#include <optional>

#include "core/config.hpp"
#include "mds/point.hpp"
#include "util/rng.hpp"
#include "util/statecodec.hpp"

namespace stayaway::core {

enum class ThrottleAction {
  None,
  Pause,
  Resume,
};

const char* to_string(ThrottleAction action);

/// Why the most recent Resume fired (diagnostics + beta bookkeeping).
enum class ResumeReason {
  BetaExceeded,
  AntiStarvation,
};

const char* to_string(ResumeReason reason);

class ThrottleGovernor {
 public:
  ThrottleGovernor(GovernorConfig config, Rng rng);

  /// One decision per control period.
  /// now: simulated time; batch_paused: whether the batch is currently
  /// paused; violation_predicted/observed: this period's signals;
  /// mapped_state: the sensitive run's current point in the map.
  ThrottleAction decide(double now, bool batch_paused,
                        bool violation_predicted, bool violation_observed,
                        const mds::Point2& mapped_state);

  /// Closes an open pause ledger without emitting (or counting) a
  /// Resume. Called by the actuator when a Pause it issued was fully
  /// abandoned after exhausting retries, or when Failsafe supersedes the
  /// governor's own pause: the books must not describe a pause that no
  /// longer exists, or the stale starvation clock and distance chain
  /// leak into the next genuine pause. No-op when no pause is open.
  void abandon_pause();

  double beta() const { return beta_; }
  /// Why the most recent Resume fired; nullopt before the first resume.
  std::optional<ResumeReason> last_resume_reason() const {
    return last_resume_reason_;
  }
  std::size_t pauses() const { return pauses_; }
  std::size_t resumes() const { return resumes_; }
  std::size_t failed_resumes() const { return failed_resumes_; }
  std::size_t random_resumes() const { return random_resumes_; }

  /// Snapshot of the full decision state — beta, the RNG stream, the
  /// open-pause books and every counter (DESIGN.md §17). A restored
  /// governor makes the exact decision sequence the original would have.
  void persist(util::StateIO& io);

 private:
  GovernorConfig config_;
  Rng rng_;
  double beta_;
  std::optional<mds::Point2> last_paused_state_;
  /// When the current pause began. Set by our own Pause decision, or on
  /// the first decide() that observes an externally initiated pause —
  /// never defaulted, so the starvation timer cannot start in the past.
  std::optional<double> paused_since_;
  std::optional<double> resumed_at_;
  std::optional<ResumeReason> last_resume_reason_;
  std::size_t pauses_ = 0;
  std::size_t resumes_ = 0;
  std::size_t failed_resumes_ = 0;
  std::size_t random_resumes_ = 0;
};

}  // namespace stayaway::core
