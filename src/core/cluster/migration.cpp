#include "core/cluster/migration.hpp"

#include <algorithm>
#include <utility>

namespace stayaway::core::cluster {

MigrationActuator::MigrationActuator(std::unique_ptr<Actuator> inner)
    : inner_(std::move(inner)) {}

void MigrationActuator::set_mobile(std::vector<sim::VmId> mobile) {
  mobile_ = std::move(mobile);
}

std::vector<sim::VmId> MigrationActuator::take_migrated() {
  return std::exchange(outbox_, {});
}

void MigrationActuator::act(ActuationPort& port, PeriodRecord& rec,
                            DegradationState degradation,
                            obs::Observer* observer, Outcome& out) {
  rec.migrations_in = incoming_;
  incoming_ = 0;

  bool trigger = rec.violation_observed || rec.violation_predicted;
  if (gate_ && trigger) {
    gate_ = false;
    // Largest-footprint mobile VM still attached to this host; footprint
    // ties break toward the lower VmId (enumeration order is stable).
    sim::VmId victim = 0;
    double best = -1.0;
    bool found = false;
    std::vector<VmFootprint> footprints;
    port.batch_footprints(footprints);
    for (const VmFootprint& f : footprints) {
      if (std::find(mobile_.begin(), mobile_.end(), f.id) == mobile_.end()) {
        continue;
      }
      if (f.footprint > best) {
        best = f.footprint;
        victim = f.id;
        found = true;
      }
    }
    if (found && port.detach(victim)) {
      outbox_.push_back(victim);
      ++migrations_out_total_;
      rec.migrations_out = 1;
      rec.action = ThrottleAction::None;
      rec.batch_paused_after = false;
      out.reason = "migrate-out";
      return;
    }
  }
  gate_ = false;

  if (inner_ != nullptr) inner_->act(port, rec, degradation, observer, out);
}

void MigrationActuator::persist(util::StateIO& io) {
  io.boolean("migration_gate", gate_);
  io.u64("migration_incoming", incoming_);
  io.u64s("migration_outbox", outbox_);
  io.u64("migrations_out_total", migrations_out_total_);
  io.expect("migration_has_inner", inner_ != nullptr,
            "migration actuator inner-stage presence mismatch");
  if (inner_ != nullptr) inner_->persist(io);
}

}  // namespace stayaway::core::cluster
