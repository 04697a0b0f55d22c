// MigrationActuator — the migration alternative to pausing (DESIGN.md
// §18). Wraps a host's normal Actuator: in ordinary periods it is a
// transparent pass-through, but when the coordinator has opened its
// migration gate and the period observes or predicts a violation, it
// detaches the largest-footprint mobile batch VM through the port
// (migration-out) instead of letting the inner governor pause — the load
// leaves the host rather than stopping. Detached VMs land in an outbox
// the coordinator drains between fleet periods to re-attach them on the
// safest host.
//
// The gate is one-shot: the coordinator opens it for exactly one period
// and the actuator closes it again whether or not a migration fired, so
// a crash-recovery gap replay re-applying recorded gates reproduces the
// original decisions byte for byte.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/stages/stage.hpp"

namespace stayaway::core::cluster {

class MigrationActuator final : public Actuator {
 public:
  /// Wraps `inner` (usually the host's GovernorActuator); may be null,
  /// in which case non-migration periods perform no action at all.
  explicit MigrationActuator(std::unique_ptr<Actuator> inner);

  /// Batch VMs this actuator is allowed to migrate out, by host VmId.
  void set_mobile(std::vector<sim::VmId> mobile);

  /// Opens the migration gate for the next period (coordinator only).
  void set_gate(bool open) { gate_ = open; }

  /// Tells the actuator `n` VMs were attached to its host at the current
  /// boundary, so the next period's record stamps migrations_in.
  void note_incoming(std::size_t n) { incoming_ += n; }

  /// Drains the outbox: VMs detached by migrate-out since the last call,
  /// in detach order.
  std::vector<sim::VmId> take_migrated();

  void act(ActuationPort& port, PeriodRecord& rec, DegradationState degradation,
           obs::Observer* observer, Outcome& out) override;

  Actuator* inner() { return inner_.get(); }
  const Actuator* inner() const { return inner_.get(); }

  /// Snapshots the gate, incoming note and outbox with the inner stage,
  /// so a restore resumes mid-handshake exactly.
  void persist(util::StateIO& io) override;

 private:
  std::unique_ptr<Actuator> inner_;
  std::vector<sim::VmId> mobile_;
  bool gate_ = false;
  std::size_t incoming_ = 0;
  std::vector<sim::VmId> outbox_;
  std::size_t migrations_out_total_ = 0;
};

}  // namespace stayaway::core::cluster
