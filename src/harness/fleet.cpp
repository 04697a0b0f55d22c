#include "harness/fleet.hpp"

#include <cmath>
#include <memory>
#include <set>
#include <utility>

#include "apps/webservice.hpp"
#include "baseline/stages/reactive_actuator.hpp"
#include "baseline/stages/static_actuator.hpp"
#include "core/checkpoint.hpp"
#include "core/cluster/coordinator.hpp"
#include "core/cluster/migration.hpp"
#include "core/fleet.hpp"
#include "harness/rig.hpp"
#include "util/check.hpp"

namespace stayaway::harness {
namespace {

/// One host's mutable driving state for the duration of run_fleet. Slots
/// are only ever touched by the single worker driving their member, or
/// by the coordinator's hooks between periods with every worker joined,
/// so the fleet needs no cross-host synchronisation.
struct Slot {
  const FleetHostSpec* spec = nullptr;
  HostRig rig;
  std::unique_ptr<core::HostPipeline> pipeline;
  ExperimentResult result;
  double util_acc = 0.0;
};

/// Builds the pipeline a policy kind runs as: Stay-Away gets the full
/// stage wiring, the baselines run as actuator-only pipelines, and
/// no-prevention is an empty pipeline that still records periods.
std::unique_ptr<core::HostPipeline> make_pipeline(
    const FleetHostSpec& hs, HostRig& rig) {
  const ExperimentSpec& spec = hs.experiment;
  core::StayAwayConfig sa_config = derive_stayaway_config(spec);
  switch (spec.policy) {
    case PolicyKind::StayAway: {
      auto pipeline = std::make_unique<core::HostPipeline>(
          *rig.host, *rig.probe, std::move(sa_config));
      if (spec.seed_template.has_value()) {
        pipeline->stay_away_mapper()->seed_template(*spec.seed_template);
      }
      if (spec.faults.has_value() && !spec.faults->empty()) {
        pipeline->install_faults(*spec.faults);
      }
      return pipeline;
    }
    case PolicyKind::NoPrevention:
      return std::make_unique<core::HostPipeline>(
          *rig.host, *rig.probe, std::move(sa_config), core::StageSet{});
    case PolicyKind::Reactive: {
      core::StageSet stages;
      stages.actuator = std::make_unique<baseline::ReactiveActuator>();
      return std::make_unique<core::HostPipeline>(
          *rig.host, *rig.probe, std::move(sa_config), std::move(stages));
    }
    case PolicyKind::StaticThreshold: {
      core::StageSet stages;
      stages.actuator = std::make_unique<baseline::StaticThresholdActuator>();
      return std::make_unique<core::HostPipeline>(
          *rig.host, *rig.probe, std::move(sa_config), std::move(stages));
    }
  }
  SA_CHECK(false, "unknown policy kind");
  return nullptr;
}

/// Post-run extraction of the Stay-Away internals (records, tally,
/// governor and mapper state) into the host's ExperimentResult.
void extract_stayaway(const core::HostPipeline& pipeline,
                      const ExperimentSpec& spec, ExperimentResult& result) {
  const core::StayAwayMapper* mapper = pipeline.stay_away_mapper();
  const core::TrajectoryForecaster* forecaster =
      pipeline.trajectory_forecaster();
  const core::GovernorActuator* actuator = pipeline.governor_actuator();
  if (actuator == nullptr) {
    // Cluster fleets wrap the governor in a MigrationActuator; the
    // Stay-Away internals live on the inner stage.
    if (const auto* mig = dynamic_cast<const core::cluster::MigrationActuator*>(
            pipeline.actuator())) {
      actuator = dynamic_cast<const core::GovernorActuator*>(mig->inner());
    }
  }
  SA_CHECK(actuator != nullptr,
           "a Stay-Away pipeline always carries a governor actuator");
  result.stayaway_records = pipeline.records();
  result.tally = forecaster->tally();
  result.pauses = actuator->governor().pauses();
  result.resumes = actuator->governor().resumes();
  for (const auto& rec : result.stayaway_records) {
    if (rec.degradation == core::DegradationState::Degraded) {
      ++result.degraded_periods;
    } else if (rec.degradation == core::DegradationState::Failsafe) {
      ++result.failsafe_periods;
    }
  }
  result.readings_quarantined = mapper->readings_quarantined();
  result.actuation_retries = actuator->actuation_retries();
  result.actuation_abandoned = actuator->actuation_abandoned();
  result.final_beta = actuator->governor().beta();
  result.representative_count = mapper->representatives().size();
  result.final_stress = mapper->embedder().stress();
  result.exported_template = mapper->export_template(to_string(spec.sensitive));
  result.final_map = mapper->space().positions();
}

}  // namespace

FleetSpec replicate_fleet(const ExperimentSpec& base, std::size_t host_count,
                          std::uint64_t base_seed, std::size_t workers) {
  SA_REQUIRE(host_count >= 1, "a fleet needs at least one host");
  FleetSpec fleet;
  fleet.workers = workers;
  fleet.hosts.reserve(host_count);
  for (std::size_t i = 0; i < host_count; ++i) {
    FleetHostSpec hs;
    hs.name = "host" + std::to_string(i);
    hs.experiment = base;
    hs.experiment.seed = core::fleet_host_seed(base_seed, i);
    fleet.hosts.push_back(std::move(hs));
  }
  return fleet;
}

FleetResult run_fleet(const FleetSpec& spec) {
  SA_REQUIRE(!spec.hosts.empty(), "a fleet needs at least one host");
  {
    std::set<std::string> names;
    for (const FleetHostSpec& hs : spec.hosts) {
      SA_REQUIRE(!hs.name.empty(), "fleet host names must be non-empty");
      SA_REQUIRE(names.insert(hs.name).second,
                 "duplicate fleet host name: " + hs.name);
    }
  }
  // A fleet of one (every single-host run) keeps the historical
  // unlabelled observability stream; real fleets tag everything.
  const bool label_hosts = spec.hosts.size() > 1;

  std::vector<Slot> slots(spec.hosts.size());
  core::FleetConfig controller_config;
  controller_config.workers = spec.workers;
  controller_config.checkpoint_every = spec.checkpoint_every;
  controller_config.watchdog_budget = spec.watchdog_budget;
  core::FleetController controller(controller_config);

  // --- Cluster coordination (DESIGN.md §18). --------------------------
  const ClusterSpec* cluster =
      spec.cluster.has_value() ? &*spec.cluster : nullptr;
  std::vector<std::size_t> mobile_home;  // host index per mobile VM
  if (cluster != nullptr) {
    std::set<std::string> vm_names;
    for (const MobileVmSpec& m : cluster->mobile) {
      SA_REQUIRE(!m.name.empty(), "mobile VM names must be non-empty");
      SA_REQUIRE(vm_names.insert(m.name).second,
                 "duplicate cluster VM name: " + m.name);
      std::size_t home = spec.hosts.size();
      for (std::size_t i = 0; i < spec.hosts.size(); ++i) {
        if (spec.hosts[i].name == m.home) home = i;
      }
      SA_REQUIRE(home < spec.hosts.size(),
                 "mobile VM home is not a fleet host: " + m.home);
      mobile_home.push_back(home);
    }
    for (const AdmissionSpec& a : cluster->admissions) {
      SA_REQUIRE(!a.name.empty(), "admission VM names must be non-empty");
      SA_REQUIRE(vm_names.insert(a.name).second,
                 "duplicate cluster VM name: " + a.name);
    }
  }
  // Every host carries a twin of every cluster VM from construction (the
  // sampler layout is fixed then), attached only on a mobile VM's home.
  auto twins_for_host = [&](std::size_t i) {
    std::vector<TwinSpec> twins;
    if (cluster == nullptr) return twins;
    for (std::size_t j = 0; j < cluster->mobile.size(); ++j) {
      const MobileVmSpec& m = cluster->mobile[j];
      twins.push_back(TwinSpec{m.name, m.kind, m.start_s, mobile_home[j] == i});
    }
    for (const AdmissionSpec& a : cluster->admissions) {
      twins.push_back(TwinSpec{a.name, a.kind, a.arrival_s, false});
    }
    return twins;
  };
  // Builds a slot's host and pipeline from scratch — same wiring, same
  // fault plan, zero periods run. The first build and the supervisor's
  // rebuild both come through here.
  auto build_slot = [cluster, label_hosts](Slot& slot,
                                           const std::vector<TwinSpec>& twins,
                                           obs::Observer* observer) {
    const FleetHostSpec& hs = *slot.spec;
    slot.pipeline.reset();
    slot.rig = build_host_rig(hs.experiment, twins);
    slot.pipeline = make_pipeline(hs, slot.rig);
    if (cluster != nullptr) {
      // Wrap the actuator in the migration decorator; the mobile twins
      // are the first cluster->mobile.size() entries of twin_ids.
      auto mig = std::make_unique<core::cluster::MigrationActuator>(
          slot.pipeline->release_actuator());
      mig->set_mobile(std::vector<sim::VmId>(
          slot.rig.twin_ids.begin(),
          slot.rig.twin_ids.begin() +
              static_cast<std::ptrdiff_t>(cluster->mobile.size())));
      slot.pipeline->set_actuator(std::move(mig));
    }
    if (label_hosts) slot.pipeline->set_host_label(hs.name);
    // Only the Stay-Away loop publishes its internal metric/event
    // stream; every policy narrates decisions.
    if (observer != nullptr && hs.experiment.policy == PolicyKind::StayAway) {
      slot.pipeline->set_observer(observer);
    }
  };
  std::unique_ptr<core::cluster::ClusterCoordinator> coordinator;
  if (cluster != nullptr) {
    coordinator =
        std::make_unique<core::cluster::ClusterCoordinator>(cluster->config);
  }
  // Warm-started cluster runs continue the original run's period
  // numbering: the coordinator's state is indexed by absolute period, so
  // the hook and directive replay shift by the restored prefix length.
  std::size_t coord_offset = 0;
  std::size_t restored_hosts = 0;

  for (std::size_t i = 0; i < spec.hosts.size(); ++i) {
    const FleetHostSpec& hs = spec.hosts[i];
    Slot& slot = slots[i];
    slot.spec = &hs;
    const std::vector<TwinSpec> twins = twins_for_host(i);
    obs::Observer* observer = hs.experiment.observer != nullptr
                                  ? hs.experiment.observer
                                  : spec.observer;
    build_slot(slot, twins, observer);

    const ExperimentSpec& espec = hs.experiment;
    auto ticks_per_period =
        static_cast<std::size_t>(std::llround(espec.period_s / espec.tick_s));
    core::FleetController::Member member;
    member.name = hs.name;
    member.host = slot.rig.host.get();
    member.pipeline = slot.pipeline.get();
    member.ticks_per_period = ticks_per_period;
    member.periods =
        static_cast<std::size_t>(std::llround(espec.duration_s /
                                              espec.period_s));
    // Warm start (DESIGN.md §17): restore the host's checkpoint, replay
    // the restored prefix silently and drive only the live tail.
    if (auto found = spec.restore.find(hs.name); found != spec.restore.end()) {
      std::size_t restored = core::warm_start(
          *slot.pipeline, *slot.rig.host, ticks_per_period, found->second);
      SA_REQUIRE(restored <= member.periods,
                 "checkpoint is longer than the run it restores into");
      member.periods -= restored;
      if (cluster != nullptr) {
        SA_REQUIRE(restored_hosts == 0 || coord_offset == restored,
                   "cluster warm starts must restore the same period count "
                   "on every host");
        coord_offset = restored;
        ++restored_hosts;
      }
    }
    if (coordinator != nullptr) {
      coordinator->add_host(core::cluster::ClusterCoordinator::HostHooks{
          hs.name, [&slot] { return slot.pipeline.get(); },
          [&slot] {
            return static_cast<core::ActuationPort*>(
                &slot.pipeline->actuation_port());
          },
          [&slot] {
            return dynamic_cast<core::cluster::MigrationActuator*>(
                slot.pipeline->actuator());
          }});
      member.replay_directives = [coord = coordinator.get(), &coord_offset,
                                  i](std::size_t q) {
        coord->replay_host_period(i, q + coord_offset);
      };
    }
    // Crash-class faults in the plan put the member under supervision
    // automatically — derived purely from the scenario, so a recorded
    // run-log replays bit-for-bit without new scenario keys.
    if (spec.supervise || (espec.faults.has_value() &&
                           espec.faults->has_crash_faults())) {
      member.rebuild = [&slot, observer, twins, &build_slot] {
        build_slot(slot, twins, observer);
        return core::FleetController::Member::Rebuilt{slot.rig.host.get(),
                                                      slot.pipeline.get()};
      };
      member.on_reset = [&slot] { slot.util_acc = 0.0; };
    }
    member.on_tick = [&slot] {
      slot.util_acc += slot.rig.host->instantaneous_cpu_utilization();
    };
    member.on_period = [&slot, observer, ticks_per_period,
                        label_hosts](const core::PeriodRecord& rec) {
      sim::SimHost& host = *slot.rig.host;
      ExperimentResult& result = slot.result;
      bool sensitive_up = host.vm(slot.rig.sensitive_id).present(host.now());
      result.time.push_back(host.now());
      result.qos.push_back(sensitive_up ? slot.rig.probe->normalized_qos()
                                        : 1.0);
      bool violated = sensitive_up && slot.rig.probe->violated();
      if (observer != nullptr && observer->sink() != nullptr) {
        const core::Actuator::Outcome& outcome =
            slot.pipeline->last_outcome();
        std::size_t targets = rec.action == core::ThrottleAction::Pause
                                  ? outcome.paused.size()
                                  : outcome.resumed.size();
        obs::Event e(host.now(), "decision");
        if (label_hosts) e.with("host", obs::JsonValue(slot.spec->name));
        e.with("policy",
               obs::JsonValue(to_string(slot.spec->experiment.policy)))
            .with("action",
                  obs::JsonValue(core::to_string(rec.action)))
            .with("reason", obs::JsonValue(outcome.reason))
            .with("targets", obs::JsonValue(targets))
            .with("batch_paused", obs::JsonValue(rec.batch_paused_after))
            .with("qos", obs::JsonValue(result.qos.back()))
            .with("violated", obs::JsonValue(violated));
        observer->emit(e);
      }
      result.violated.push_back(violated ? 1 : 0);
      result.utilization.push_back(slot.util_acc /
                                   static_cast<double>(ticks_per_period));
      slot.util_acc = 0.0;
      bool any_batch = false;
      for (sim::VmId id : slot.rig.batch_ids) {
        if (host.vm(id).active(host.now())) any_batch = true;
      }
      result.batch_running.push_back(any_batch ? 1 : 0);
      if (slot.rig.webservice != nullptr) {
        result.offered_tps.push_back(
            slot.rig.webservice->offered_rps(host.now()));
        result.completed_tps.push_back(slot.rig.webservice->completed_tps());
      }
      if (violated) ++result.violation_periods;
    };
    controller.add_member(std::move(member));
  }

  if (coordinator != nullptr) {
    SA_REQUIRE(restored_hosts == 0 || restored_hosts == spec.hosts.size(),
               "cluster warm starts must restore every host");
    for (std::size_t j = 0; j < cluster->mobile.size(); ++j) {
      std::vector<sim::VmId> ids;
      ids.reserve(slots.size());
      for (const Slot& slot : slots) ids.push_back(slot.rig.twin_ids[j]);
      coordinator->add_mobile_vm(cluster->mobile[j].name, std::move(ids),
                                 mobile_home[j]);
    }
    const double period_s = spec.hosts.front().experiment.period_s;
    for (std::size_t k = 0; k < cluster->admissions.size(); ++k) {
      const AdmissionSpec& a = cluster->admissions[k];
      std::vector<sim::VmId> ids;
      ids.reserve(slots.size());
      for (const Slot& slot : slots) {
        ids.push_back(slot.rig.twin_ids[cluster->mobile.size() + k]);
      }
      auto arrival =
          static_cast<std::size_t>(std::llround(a.arrival_s / period_s));
      coordinator->add_admission(a.name, std::move(ids), arrival);
    }
    if (!cluster->restore.empty()) {
      core::cluster::restore_coordinator(*coordinator, cluster->restore);
    }
    controller.set_period_hook(
        [coord = coordinator.get(), &coord_offset](std::size_t p) {
          coord->step(p + coord_offset);
        });
  }

  controller.set_recorder(spec.recorder);
  controller.run();

  FleetResult out;
  out.hosts.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    ExperimentResult& result = slot.result;
    sim::SimHost& host = *slot.rig.host;
    if (!result.qos.empty()) {
      double qacc = 0.0;
      double uacc = 0.0;
      for (std::size_t j = 0; j < result.qos.size(); ++j) {
        qacc += result.qos[j];
        uacc += result.utilization[j];
      }
      result.avg_qos = qacc / static_cast<double>(result.qos.size());
      result.avg_utilization = uacc / static_cast<double>(result.qos.size());
      result.violation_fraction =
          static_cast<double>(result.violation_periods) /
          static_cast<double>(result.qos.size());
    }
    result.sensitive_cpu_work = host.vm(slot.rig.sensitive_id).cpu_work_done();
    for (sim::VmId id : slot.rig.batch_ids) {
      result.batch_cpu_work += host.vm(id).cpu_work_done();
    }
    if (slot.spec->experiment.policy == PolicyKind::StayAway) {
      extract_stayaway(*slot.pipeline, slot.spec->experiment, result);
    }
    FleetHostResult host_result;
    host_result.name = slot.spec->name;
    host_result.result = std::move(result);
    host_result.recovery = controller.members()[i].recovery;
    if (spec.export_checkpoints) {
      host_result.final_checkpoint = core::encode_checkpoint(*slot.pipeline);
    }
    out.hosts.push_back(std::move(host_result));
  }
  if (coordinator != nullptr) {
    ClusterReport report;
    report.migrations = coordinator->migrations();
    report.admitted = coordinator->admissions_accepted();
    report.rejected = coordinator->admissions_rejected();
    report.queued = coordinator->admissions_queued();
    report.events = coordinator->events();
    if (spec.export_checkpoints) {
      report.final_coordinator = core::cluster::encode_coordinator(*coordinator);
    }
    out.cluster = std::move(report);
  }
  return out;
}

}  // namespace stayaway::harness
