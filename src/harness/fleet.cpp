#include "harness/fleet.hpp"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <exception>
#include <memory>
#include <set>
#include <utility>

#include "apps/webservice.hpp"
#include "baseline/stages/reactive_actuator.hpp"
#include "baseline/stages/static_actuator.hpp"
#include "core/checkpoint.hpp"
#include "core/cluster/coordinator.hpp"
#include "core/cluster/migration.hpp"
#include "harness/rig.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace stayaway::harness {
namespace {

// splitmix64 finalizer: full-avalanche bijection on u64.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One host's mutable driving state for the duration of run_fleet. Slots
/// are only ever touched by the single worker driving them, or by the
/// coordinator between periods with every worker at the period barrier,
/// so the fleet needs no cross-host synchronisation.
struct Slot {
  const FleetHostSpec* spec = nullptr;
  obs::Observer* observer = nullptr;
  std::vector<TwinSpec> twins;
  HostRig rig;
  std::unique_ptr<core::HostPipeline> pipeline;
  ExperimentResult result;
  double util_acc = 0.0;
  std::size_t ticks_per_period = 0;
  /// Live periods to drive (a warm start's restored prefix excluded).
  std::size_t periods = 0;
  /// Runs under the crash supervisor (DESIGN.md §17).
  bool supervised = false;
  /// The supervisor's checkpoints over the whole run, newest last, the
  /// last two kept.
  std::vector<std::string> checkpoints;
  RecoveryReport recovery;
  /// The exception that stopped this host, surfaced after the run.
  std::exception_ptr error;
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
          *rig.host, *rig.probe, std::move(sa_config), nullptr);
    case PolicyKind::Reactive:
      return std::make_unique<core::HostPipeline>(
          *rig.host, *rig.probe, std::move(sa_config),
          std::make_unique<baseline::ReactiveActuator>());
    case PolicyKind::StaticThreshold:
      return std::make_unique<core::HostPipeline>(
          *rig.host, *rig.probe, std::move(sa_config),
          std::make_unique<baseline::StaticThresholdActuator>());
  }
  SA_CHECK(false, "unknown policy kind");
  return nullptr;
}

/// Post-run extraction of the Stay-Away internals (records, tally,
/// governor and mapper state) into the host's ExperimentResult. The
/// record history is moved out, so the pipeline must not be encoded
/// afterwards.
void extract_stayaway(core::HostPipeline& pipeline,
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
  result.stayaway_records = pipeline.take_records();
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

/// One run_fleet call: the slots, the optional cluster coordinator and
/// the one period loop over them — period stepping, the crash
/// supervisor and the worker split (DESIGN.md §13, §17, §18).
class FleetRun {
 public:
  /// Validates the spec and builds every host (warm-starting the ones
  /// FleetSpec::restore names) and the coordinator.
  explicit FleetRun(const FleetSpec& spec);

  /// Drives every slot for its live periods on min(workers, hosts)
  /// threads, each owning a fixed contiguous slice of the slots. An
  /// independent fleet never joins before the end; a coordinated one
  /// meets at a barrier after every period, whose completion step — on
  /// the last worker to arrive, with no host in flight — stops the run
  /// on a host failure or steps the coordinator. Afterwards the first
  /// host failure in host order is rethrown (a coordinator failure
  /// first; the two never both happen).
  void drive();

  /// Post-run series summaries, Stay-Away internals and exports.
  FleetResult results();

 private:
  /// Builds a slot's host and pipeline from scratch — same wiring, same
  /// fault plan, zero periods run. The first build and the supervisor's
  /// rebuild both come through here.
  void build_slot(Slot& slot) const;
  /// Appends period p's entries to the host's result series and narrates
  /// the decision to the host's observer.
  void record_series(Slot& slot, const core::PeriodRecord& rec) const;
  /// Period `p` of slot `i`: ticks, series, recorder. A supervised slot
  /// additionally runs under the crash trap, the stall watchdog,
  /// recovery and the end-of-period checkpoint cadence.
  void drive_period(std::size_t i, std::size_t p);
  /// Rebuilds slot `i`, warm-starts it from the newest usable checkpoint
  /// (corrupt ones are dropped for good; none left = cold start), masks
  /// the handled fault behind the crash horizon and silently replays up
  /// to `period` — leaving the host exactly where the crashed run stood
  /// when period `period`'s ticks were about to run.
  void recover(std::size_t i, std::size_t period, double fail_time);
  /// Re-applies the coordinator's recorded boundary directives for live
  /// period `p` against slot `i` (cluster runs only): attaches, the
  /// migration gate, the incoming note.
  void replay_directives(std::size_t i, std::size_t p) {
    if (coordinator_ != nullptr) {
      coordinator_->replay_host_period(i, p + coord_offset_);
    }
  }

  const FleetSpec& spec_;
  const ClusterSpec* cluster_ = nullptr;
  /// A fleet of one (every single-host run) keeps the historical
  /// unlabelled observability stream; real fleets tag everything.
  bool label_hosts_ = false;
  std::vector<Slot> slots_;
  std::unique_ptr<core::cluster::ClusterCoordinator> coordinator_;
  /// Warm-started cluster runs continue the original run's period
  /// numbering: the coordinator's state is indexed by absolute period,
  /// so its steps and directive replays shift by the restored prefix.
  std::size_t coord_offset_ = 0;
};

FleetRun::FleetRun(const FleetSpec& spec)
    : spec_(spec),
      cluster_(spec.cluster.has_value() ? &*spec.cluster : nullptr),
      label_hosts_(spec.hosts.size() > 1),
      slots_(spec.hosts.size()) {
  SA_REQUIRE(!spec.hosts.empty(), "a fleet needs at least one host");
  SA_REQUIRE(spec.workers >= 1, "a fleet needs at least one worker");
  {
    std::set<std::string> names;
    for (const FleetHostSpec& hs : spec.hosts) {
      SA_REQUIRE(!hs.name.empty(), "fleet host names must be non-empty");
      SA_REQUIRE(names.insert(hs.name).second,
                 "duplicate fleet host name: " + hs.name);
    }
  }

  // --- Cluster coordination (DESIGN.md §18). --------------------------
  std::vector<std::size_t> mobile_home;  // host index per mobile VM
  if (cluster_ != nullptr) {
    std::set<std::string> vm_names;
    for (const MobileVmSpec& m : cluster_->mobile) {
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
    for (const AdmissionSpec& a : cluster_->admissions) {
      SA_REQUIRE(!a.name.empty(), "admission VM names must be non-empty");
      SA_REQUIRE(vm_names.insert(a.name).second,
                 "duplicate cluster VM name: " + a.name);
    }
    coordinator_ =
        std::make_unique<core::cluster::ClusterCoordinator>(cluster_->config);
  }
  std::size_t restored_hosts = 0;

  for (std::size_t i = 0; i < spec.hosts.size(); ++i) {
    const FleetHostSpec& hs = spec.hosts[i];
    const ExperimentSpec& espec = hs.experiment;
    Slot& slot = slots_[i];
    slot.spec = &hs;
    slot.observer = espec.observer != nullptr ? espec.observer : spec.observer;
    // Every host carries a twin of every cluster VM from construction
    // (the sampler layout is fixed then), attached only on a mobile VM's
    // home.
    if (cluster_ != nullptr) {
      for (std::size_t j = 0; j < cluster_->mobile.size(); ++j) {
        const MobileVmSpec& m = cluster_->mobile[j];
        slot.twins.push_back(
            TwinSpec{m.name, m.kind, m.start_s, mobile_home[j] == i});
      }
      for (const AdmissionSpec& a : cluster_->admissions) {
        slot.twins.push_back(TwinSpec{a.name, a.kind, a.arrival_s, false});
      }
    }
    build_slot(slot);
    slot.ticks_per_period =
        static_cast<std::size_t>(std::llround(espec.period_s / espec.tick_s));
    SA_REQUIRE(slot.ticks_per_period >= 1,
               "each period must advance at least one tick");
    slot.periods = static_cast<std::size_t>(
        std::llround(espec.duration_s / espec.period_s));
    // Warm start (DESIGN.md §17): restore the host's checkpoint, replay
    // the restored prefix silently and drive only the live tail.
    if (auto found = spec.restore.find(hs.name); found != spec.restore.end()) {
      std::size_t restored =
          core::warm_start(*slot.pipeline, *slot.rig.host,
                           slot.ticks_per_period, found->second);
      SA_REQUIRE(restored <= slot.periods,
                 "checkpoint is longer than the run it restores into");
      slot.periods -= restored;
      if (cluster_ != nullptr) {
        SA_REQUIRE(restored_hosts == 0 || coord_offset_ == restored,
                   "cluster warm starts must restore the same period count "
                   "on every host");
        coord_offset_ = restored;
        ++restored_hosts;
      }
    }
    // Crash-class faults in the plan put the host under supervision
    // automatically — derived purely from the scenario, so a recorded
    // run-log replays bit-for-bit without new scenario keys.
    slot.supervised = spec.supervise || (espec.faults.has_value() &&
                                         espec.faults->has_crash_faults());
    if (coordinator_ != nullptr) {
      coordinator_->add_host(core::cluster::ClusterCoordinator::HostHooks{
          hs.name, [&slot] { return slot.pipeline.get(); },
          [&slot] {
            return static_cast<core::ActuationPort*>(
                &slot.pipeline->actuation_port());
          },
          [&slot] {
            return dynamic_cast<core::cluster::MigrationActuator*>(
                slot.pipeline->actuator());
          }});
    }
  }
  if (coordinator_ == nullptr) return;

  for (const Slot& slot : slots_) {
    SA_REQUIRE(slot.periods == slots_.front().periods,
               "coordinated fleets need a shared period count");
  }
  SA_REQUIRE(restored_hosts == 0 || restored_hosts == slots_.size(),
             "cluster warm starts must restore every host");
  // The coordinator's state is only meaningful next to the hosts it was
  // saved with, and restored hosts expect the coordinator that steered
  // them: a warm start restores both sides or neither.
  SA_REQUIRE(restored_hosts == 0 || !cluster_->restore.empty(),
             "cluster warm start restores the hosts but has no coordinator "
             "checkpoint to pair them with");
  SA_REQUIRE(restored_hosts > 0 || cluster_->restore.empty(),
             "cluster warm start restores the coordinator but has no host "
             "checkpoints to pair it with");
  for (std::size_t j = 0; j < cluster_->mobile.size(); ++j) {
    std::vector<sim::VmId> ids;
    ids.reserve(slots_.size());
    for (const Slot& slot : slots_) ids.push_back(slot.rig.twin_ids[j]);
    coordinator_->add_mobile_vm(cluster_->mobile[j].name, std::move(ids),
                                mobile_home[j]);
  }
  const double period_s = spec.hosts.front().experiment.period_s;
  for (std::size_t k = 0; k < cluster_->admissions.size(); ++k) {
    const AdmissionSpec& a = cluster_->admissions[k];
    std::vector<sim::VmId> ids;
    ids.reserve(slots_.size());
    for (const Slot& slot : slots_) {
      ids.push_back(slot.rig.twin_ids[cluster_->mobile.size() + k]);
    }
    auto arrival =
        static_cast<std::size_t>(std::llround(a.arrival_s / period_s));
    coordinator_->add_admission(a.name, std::move(ids), arrival);
  }
  if (!cluster_->restore.empty()) {
    core::cluster::restore_coordinator(*coordinator_, cluster_->restore);
  }
}

void FleetRun::build_slot(Slot& slot) const {
  const FleetHostSpec& hs = *slot.spec;
  slot.pipeline.reset();
  slot.rig = build_host_rig(hs.experiment, slot.twins);
  slot.pipeline = make_pipeline(hs, slot.rig);
  if (cluster_ != nullptr) {
    // Wrap the actuator in the migration decorator; the mobile twins
    // are the first cluster_->mobile.size() entries of twin_ids.
    auto mig = std::make_unique<core::cluster::MigrationActuator>(
        slot.pipeline->release_actuator());
    mig->set_mobile(std::vector<sim::VmId>(
        slot.rig.twin_ids.begin(),
        slot.rig.twin_ids.begin() +
            static_cast<std::ptrdiff_t>(cluster_->mobile.size())));
    slot.pipeline->set_actuator(std::move(mig));
  }
  if (label_hosts_) slot.pipeline->set_host_label(hs.name);
  // Only the Stay-Away loop publishes its internal metric/event stream;
  // every policy narrates decisions.
  if (slot.observer != nullptr &&
      hs.experiment.policy == PolicyKind::StayAway) {
    slot.pipeline->set_observer(slot.observer);
  }
}

void FleetRun::record_series(Slot& slot,
                             const core::PeriodRecord& rec) const {
  sim::SimHost& host = *slot.rig.host;
  ExperimentResult& result = slot.result;
  bool sensitive_up = host.vm(slot.rig.sensitive_id).present(host.now());
  result.time.push_back(host.now());
  result.qos.push_back(sensitive_up ? slot.rig.probe->normalized_qos() : 1.0);
  bool violated = sensitive_up && slot.rig.probe->violated();
  obs::Observer* observer = slot.observer;
  if (observer != nullptr && observer->sink() != nullptr) {
    const core::Actuator::Outcome& outcome = slot.pipeline->last_outcome();
    std::size_t targets = rec.action == core::ThrottleAction::Pause
                              ? outcome.paused.size()
                              : outcome.resumed.size();
    obs::Event e(host.now(), "decision");
    if (label_hosts_) e.with("host", obs::JsonValue(slot.spec->name));
    e.with("policy", obs::JsonValue(to_string(slot.spec->experiment.policy)))
        .with("action", obs::JsonValue(core::to_string(rec.action)))
        .with("reason", obs::JsonValue(outcome.reason))
        .with("targets", obs::JsonValue(targets))
        .with("batch_paused", obs::JsonValue(rec.batch_paused_after))
        .with("qos", obs::JsonValue(result.qos.back()))
        .with("violated", obs::JsonValue(violated));
    observer->emit(e);
  }
  result.violated.push_back(violated ? 1 : 0);
  result.utilization.push_back(slot.util_acc /
                               static_cast<double>(slot.ticks_per_period));
  slot.util_acc = 0.0;
  bool any_batch = false;
  for (sim::VmId id : slot.rig.batch_ids) {
    if (host.vm(id).active(host.now())) any_batch = true;
  }
  result.batch_running.push_back(any_batch ? 1 : 0);
  if (slot.rig.webservice != nullptr) {
    result.offered_tps.push_back(slot.rig.webservice->offered_rps(host.now()));
    result.completed_tps.push_back(slot.rig.webservice->completed_tps());
  }
  if (violated) ++result.violation_periods;
}

void FleetRun::drive_period(std::size_t i, std::size_t p) {
  // Injected faults are masked behind the crash horizon once handled, so
  // only a genuine (deterministic) defect can make the same period fail
  // again; after this many recoveries the host is declared dead and its
  // exception surfaces through run_fleet.
  constexpr std::size_t kMaxRecoveriesPerPeriod = 3;
  // Stalled on_period attempts the per-stage watchdog retries in place
  // before escalating a StageStall to a full crash recovery. The budget
  // is counted in deterministic retry attempts, never wall clock.
  constexpr std::size_t kWatchdogBudget = 3;
  Slot& slot = slots_[i];
  std::size_t recoveries = 0;
  // HostCrash fires at the period boundary, before any tick of p, so
  // the recovered host replays nothing it has not already done.
  const sim::FaultInjector* inj = slot.pipeline->fault_injector();
  if (slot.supervised && inj != nullptr &&
      inj->crash_signal(slot.rig.host->now())) {
    ++slot.recovery.crashes;
    recover(i, p, slot.rig.host->now());
    ++recoveries;
  }
  for (;;) {
    sim::SimHost& host = *slot.rig.host;
    for (std::size_t t = 0; t < slot.ticks_per_period; ++t) {
      host.step();
      slot.util_acc += host.instantaneous_cpu_utilization();
    }
    bool failed = false;
    double fail_time = 0.0;
    for (std::size_t stall_retries = 0; !failed;) {
      try {
        const core::PeriodRecord& rec = slot.pipeline->on_period();
        record_series(slot, rec);
        if (spec_.recorder != nullptr) {
          spec_.recorder->record_period(slot.spec->name, rec);
        }
        break;
      } catch (const std::exception& e) {
        if (!slot.supervised) throw;
        if (const auto* stall =
                dynamic_cast<const core::StageStallError*>(&e)) {
          // The watchdog's deadline is a deterministic attempt budget:
          // retry the stage in place until the budget runs out, then
          // treat the stall as a crash.
          ++slot.recovery.stalls;
          if (++stall_retries < kWatchdogBudget) continue;
          ++slot.recovery.watchdog_trips;
          fail_time = stall->time();
        } else if (const auto* thrown =
                       dynamic_cast<const core::StageThrowError*>(&e)) {
          ++slot.recovery.stage_throws;
          fail_time = thrown->time();
        } else {
          // An uninjected stage defect: trap it like a crash so the rest
          // of the fleet keeps running, but give up once it proves
          // deterministic.
          fail_time = host.now();
        }
        if (recoveries >= kMaxRecoveriesPerPeriod) throw;
        failed = true;
      }
    }
    if (!failed) break;
    recover(i, p, fail_time);
    ++recoveries;
    // loop: re-run this period's ticks on the recovered host
  }
  if (slot.supervised && spec_.checkpoint_every > 0 &&
      (p + 1) % spec_.checkpoint_every == 0) {
    std::string blob = core::encode_checkpoint(*slot.pipeline);
    const sim::FaultInjector* cinj = slot.pipeline->fault_injector();
    if (cinj != nullptr && cinj->checkpoint_corrupt(slot.rig.host->now())) {
      core::corrupt_checkpoint_blob(blob);
    }
    slot.checkpoints.push_back(std::move(blob));
    if (slot.checkpoints.size() > 2) {
      slot.checkpoints.erase(slot.checkpoints.begin());
    }
    ++slot.recovery.checkpoints_saved;
  }
}

void FleetRun::recover(std::size_t i, std::size_t period, double fail_time) {
  Slot& slot = slots_[i];
  // The crashed pipeline's completed history drives the divergence
  // check; move it out before the rebuild tears the pipeline down.
  const std::vector<core::PeriodRecord> history =
      slot.pipeline->take_records();
  // Newest usable checkpoint wins; warm_start fast-forwards the fresh
  // host through the restored prefix (ticks re-run, journalled
  // actuations re-applied, no observer or series activity). A checkpoint
  // that fails to restore is dropped for good (it will not get better);
  // with none left the host cold-starts and replays the whole run.
  std::size_t restored = 0;
  bool warm = false;
  while (!slot.checkpoints.empty() && !warm) {
    build_slot(slot);
    try {
      restored = core::warm_start(*slot.pipeline, *slot.rig.host,
                                  slot.ticks_per_period,
                                  slot.checkpoints.back());
      warm = true;
    } catch (const util::StateCodecError&) {
      ++slot.recovery.corrupt_checkpoints_dropped;
      slot.checkpoints.pop_back();
    }
  }
  if (!warm) {
    build_slot(slot);
    ++slot.recovery.cold_starts;
  }
  // Mask every crash spec whose window had already opened, so the
  // handled failure cannot re-fire during the replay or immediately
  // after it. Must happen after the restore (which rewinds the horizon
  // to its checkpointed value).
  sim::FaultInjector* minj = slot.pipeline->mutable_fault_injector();
  if (minj != nullptr) minj->set_crash_horizon(fail_time);
  // The crashed attempt may already have accumulated this period's
  // utilisation ticks.
  slot.util_acc = 0.0;
  // The gap replay is silent: the series, the recorder and the observer
  // already consumed periods 0..period-1 on the crashed run.
  obs::Observer* observer = slot.pipeline->observer();
  slot.pipeline->set_observer(nullptr);
  // Gap replay: live periods from the checkpoint to the failure. The
  // restored RNG streams re-draw exactly what the crashed run drew, so
  // every regenerated record must equal the history — anything else is a
  // divergence (determinism bug or state missing from the snapshot).
  for (std::size_t q = restored; q < period; ++q) {
    // Cluster directives (attaches, gates) acted at this period's
    // opening boundary on the crashed run; re-apply them before the
    // ticks so the replayed stream matches byte for byte.
    replay_directives(i, q);
    slot.rig.host->run(slot.ticks_per_period);
    const core::PeriodRecord& rec = slot.pipeline->on_period();
    // Compared encoded, so NaN coordinates compare exactly.
    if (q >= history.size() ||
        core::encode_record(rec) != core::encode_record(history[q])) {
      ++slot.recovery.divergences;
    }
  }
  slot.recovery.gap_periods_replayed += period - restored;
  // The failed period's own boundary directives also died with the
  // crashed objects — restore them before its ticks re-run.
  replay_directives(i, period);
  if (observer != nullptr) slot.pipeline->set_observer(observer);
  ++slot.recovery.recoveries;
}

void FleetRun::drive() {
  const std::size_t n = slots_.size();
  const std::size_t workers = std::min(spec_.workers, n);
  // Worker w owns slots [first_slot(w), first_slot(w + 1)) for the whole
  // run, so a slot's state never crosses threads mid-run.
  auto first_slot = [n, workers](std::size_t w) { return w * n / workers; };
  std::exception_ptr coordinator_error;
  if (coordinator_ == nullptr) {
    util::run_team(workers, [&](std::size_t w) {
      for (std::size_t i = first_slot(w); i < first_slot(w + 1); ++i) {
        try {
          for (std::size_t p = 0; p < slots_[i].periods; ++p) {
            drive_period(i, p);
          }
        } catch (...) {
          slots_[i].error = std::current_exception();
        }
      }
    });
  } else {
    // The coordinator's decisions must see every host's state for period
    // p before any host starts period p+1, so the workers meet after
    // every period. The completion step runs on the last worker to
    // arrive; `boundary` and `stop` are only written there, and the
    // barrier orders those writes before every worker's next read.
    const std::size_t periods = slots_.front().periods;
    std::size_t boundary = 0;
    bool stop = false;
    auto close_period = [&]() noexcept {
      const std::size_t p = boundary++;
      for (const Slot& slot : slots_) {
        if (slot.error) {
          stop = true;
          return;
        }
      }
      // No step after the final period: the run is over, and a boundary
      // mutation there would touch hosts that never tick again.
      if (p + 1 == periods) return;
      try {
        coordinator_->step(p + coord_offset_);
      } catch (...) {
        coordinator_error = std::current_exception();
        stop = true;
      }
    };
    std::barrier sync(static_cast<std::ptrdiff_t>(workers), close_period);
    util::run_team(workers, [&](std::size_t w) {
      for (std::size_t p = 0; p < periods && !stop; ++p) {
        for (std::size_t i = first_slot(w); i < first_slot(w + 1); ++i) {
          try {
            drive_period(i, p);
          } catch (...) {
            slots_[i].error = std::current_exception();
          }
        }
        sync.arrive_and_wait();
      }
    });
  }
  if (coordinator_error) std::rethrow_exception(coordinator_error);
  for (const Slot& slot : slots_) {
    if (slot.error) std::rethrow_exception(slot.error);
  }
}

FleetResult FleetRun::results() {
  FleetResult out;
  out.hosts.reserve(slots_.size());
  for (Slot& slot : slots_) {
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
    FleetHostResult host_result;
    // Before extract_stayaway, which moves the record history out.
    if (spec_.export_checkpoints) {
      host_result.final_checkpoint = core::encode_checkpoint(*slot.pipeline);
    }
    if (slot.spec->experiment.policy == PolicyKind::StayAway) {
      extract_stayaway(*slot.pipeline, slot.spec->experiment, result);
    }
    host_result.name = slot.spec->name;
    host_result.result = std::move(result);
    host_result.recovery = slot.recovery;
    out.hosts.push_back(std::move(host_result));
  }
  if (coordinator_ != nullptr) {
    ClusterReport report;
    report.migrations = coordinator_->migrations();
    report.admitted = coordinator_->admissions_accepted();
    report.rejected = coordinator_->admissions_rejected();
    report.queued = coordinator_->admissions_queued();
    report.events = coordinator_->events();
    if (spec_.export_checkpoints) {
      report.final_coordinator =
          core::cluster::encode_coordinator(*coordinator_);
    }
    out.cluster = std::move(report);
  }
  return out;
}

}  // namespace

std::uint64_t fleet_host_seed(std::uint64_t base, std::size_t host_index) {
  // Avalanche base and index independently before combining. A single
  // finalizer over the affine input base + gamma*(i+1) is a bijection,
  // but its input lattice makes (base + gamma, i) and (base, i + 1)
  // identical — correlated fleets for golden-gamma-related base seeds.
  // Mixing base first destroys that additive structure; the +1 keeps
  // host 0 from collapsing onto mix64(mix64(base)).
  const std::uint64_t gamma = 0x9e3779b97f4a7c15ULL;
  return mix64(mix64(base) ^
               (gamma * (static_cast<std::uint64_t>(host_index) + 1)));
}

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
    hs.experiment.seed = fleet_host_seed(base_seed, i);
    fleet.hosts.push_back(std::move(hs));
  }
  return fleet;
}

FleetResult run_fleet(const FleetSpec& spec) {
  FleetRun run(spec);
  run.drive();
  return run.results();
}

}  // namespace stayaway::harness
