// GovernorActuator: the paper's Action stage (§3.3) plus the degraded-
// mode actuation machinery (DESIGN.md §12) as a pipeline stage. Owns the
// adaptive-beta throttle governor, the failsafe pause latch and the
// retry/backoff ledger for commands the fault channel dropped. All host
// effects go through the injected ActuationPort.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/governor.hpp"
#include "core/stages/stage.hpp"
#include "util/rng.hpp"

namespace stayaway::core {

class GovernorActuator final : public Actuator {
 public:
  explicit GovernorActuator(const StayAwayConfig& config);

  void act(ActuationPort& port, PeriodRecord& rec, DegradationState degradation,
           obs::Observer* observer, Outcome& out) override;

  const ThrottleGovernor& governor() const { return governor_; }
  // sa-lint: test-observer(tests check whether the batch is paused)
  bool batch_paused() const { return batch_paused_; }
  /// VMs paused by the last Pause action (empty after a Resume).
  const std::vector<sim::VmId>& throttled() const { return throttled_; }
  /// Pause/resume commands re-issued by the reconciling ledger (lifetime).
  std::size_t actuation_retries() const { return actuation_retries_total_; }
  /// Commands abandoned after the bounded retry budget ran out (lifetime).
  std::size_t actuation_abandoned() const {
    return actuation_abandoned_total_;
  }

  /// Snapshot of the governor, the pause/failsafe latches, the throttled
  /// intent set and the open retry ledger (DESIGN.md §17). A restored
  /// actuator resumes mid-retry: backoff deadlines are absolute simulated
  /// times, so they stay meaningful across a restore.
  void persist(util::StateIO& io) override;

 private:
  /// Outstanding pause/resume commands the fault channel dropped; the
  /// ledger retries them with exponential backoff until delivered or the
  /// retry budget runs out.
  struct PendingActuation {
    ThrottleAction op = ThrottleAction::None;
    std::vector<sim::VmId> targets;  // commands not yet delivered
    std::size_t attempts = 1;        // delivery rounds tried so far
    double next_retry_time = 0.0;
    /// The command belonged to a failsafe pause (or its release); on
    /// abandonment the failsafe latch must be rolled to match reality.
    bool was_failsafe = false;
  };

  void apply_action(ActuationPort& port, ThrottleAction action,
                    bool failsafe_all_batch);
  /// Re-issues pending undelivered commands once their backoff elapses.
  /// Returns the number of commands re-issued this period.
  std::size_t reconcile_actuation(ActuationPort& port, double now);
  /// Rolls back the books for commands abandoned after the retry budget
  /// ran out, so batch_paused_/throttled_/failsafe_pause_ and the
  /// governor's pause ledger describe what actually happened on the host
  /// rather than what the abandoned command intended.
  void abandon_pending();
  /// Sends one pause/resume command through the port; true when it took.
  static bool deliver(ActuationPort& port, ThrottleAction op, sim::VmId id);
  /// Replaces throttled_ with the batch VMs consuming the major share of
  /// batch resources (§5: "batch applications consuming a majority share
  /// of resources are collectively throttled").
  void select_throttle_targets(ActuationPort& port);

  bool actions_enabled_;
  bool allow_sensitive_demotion_;
  double period_s_;
  DegradationConfig degradation_;
  ThrottleGovernor governor_;
  bool batch_paused_ = false;
  std::vector<sim::VmId> throttled_;  // VMs paused by the last Pause action
  std::vector<VmFootprint> footprints_;  // select_throttle_targets scratch
  bool failsafe_pause_ = false;  // the current pause was failsafe-initiated
  std::optional<PendingActuation> pending_;
  std::size_t actuation_retries_total_ = 0;
  std::size_t actuation_abandoned_total_ = 0;
};

}  // namespace stayaway::core
