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

Actuator::Outcome MigrationActuator::act(ActuationPort& port,
                                         PeriodRecord& rec,
                                         DegradationState degradation,
                                         obs::Observer* observer) {
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
    for (const VmFootprint& f : port.batch_footprints()) {
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
      Outcome out;
      out.reason = "migrate-out";
      return out;
    }
  }
  gate_ = false;

  if (inner_ == nullptr) return {};
  return inner_->act(port, rec, degradation, observer);
}

void MigrationActuator::save_state(util::StateWriter& w) const {
  w.boolean("migration_gate", gate_);
  w.u64("migration_incoming", incoming_);
  std::vector<std::uint64_t> outbox(outbox_.begin(), outbox_.end());
  w.u64s("migration_outbox", outbox);
  w.u64("migrations_out_total", migrations_out_total_);
  w.boolean("migration_has_inner", inner_ != nullptr);
  if (inner_ != nullptr) inner_->save_state(w);
}

void MigrationActuator::load_state(util::StateReader& r) {
  gate_ = r.boolean("migration_gate");
  incoming_ = static_cast<std::size_t>(r.u64("migration_incoming"));
  outbox_.clear();
  for (std::uint64_t id : r.u64s("migration_outbox")) {
    outbox_.push_back(static_cast<sim::VmId>(id));
  }
  migrations_out_total_ =
      static_cast<std::size_t>(r.u64("migrations_out_total"));
  bool has_inner = r.boolean("migration_has_inner");
  if (has_inner != (inner_ != nullptr)) {
    throw util::StateCodecError(
        "migration actuator inner-stage presence mismatch");
  }
  if (inner_ != nullptr) inner_->load_state(r);
}

}  // namespace stayaway::core::cluster
