#include "core/fleet.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace stayaway::core {

namespace {

// splitmix64 finalizer: full-avalanche bijection on u64.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* to_string(MemberHealth health) {
  switch (health) {
    case MemberHealth::Normal:
      return "normal";
    case MemberHealth::Down:
      return "down";
    case MemberHealth::Recovering:
      return "recovering";
  }
  return "unknown";
}

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

FleetController::FleetController(FleetConfig config) : config_(config) {
  SA_REQUIRE(config_.workers >= 1, "a fleet needs at least one worker");
}

void FleetController::add_member(Member member) {
  SA_REQUIRE(!member.name.empty(), "fleet members need a name");
  SA_REQUIRE(member.host != nullptr && member.pipeline != nullptr,
             "fleet members need a host and a pipeline");
  SA_REQUIRE(member.ticks_per_period >= 1,
             "each period must advance at least one tick");
  for (const Member& m : members_) {
    SA_REQUIRE(m.name != member.name, "fleet member names must be unique");
    SA_REQUIRE(m.host != member.host,
               "one host cannot belong to two fleet members");
  }
  members_.push_back(std::move(member));
}

void FleetController::drive(Member& member) const {
  if (member.rebuild) {
    std::vector<std::string> checkpoints;  // oldest..newest; last 2 kept
    for (std::size_t p = 0; p < member.periods; ++p) {
      drive_one_period_supervised(member, p, checkpoints);
    }
    return;
  }
  for (std::size_t p = 0; p < member.periods; ++p) {
    drive_one_period(member);
  }
}

void FleetController::drive_one_period(Member& member) const {
  if (member.on_tick) {
    for (std::size_t t = 0; t < member.ticks_per_period; ++t) {
      member.host->step();
      member.on_tick();
    }
  } else {
    member.host->run(member.ticks_per_period);
  }
  const PeriodRecord& rec = member.pipeline->on_period();
  if (member.on_period) member.on_period(rec);
  if (recorder_) recorder_->record_period(member.name, rec);
}

void FleetController::drive_one_period_supervised(
    Member& member, std::size_t p,
    std::vector<std::string>& checkpoints) const {
  // Injected faults are masked behind the crash horizon once handled, so
  // only a genuine (deterministic) defect can make the same period fail
  // again; after this many recoveries the member is declared dead and
  // its exception surfaces through run() — the rest of the fleet keeps
  // going.
  constexpr std::size_t kMaxRecoveriesPerPeriod = 3;
  auto run_ticks = [&member] {
    if (member.on_tick) {
      for (std::size_t t = 0; t < member.ticks_per_period; ++t) {
        member.host->step();
        member.on_tick();
      }
    } else {
      member.host->run(member.ticks_per_period);
    }
  };
  std::size_t recoveries = 0;
  // HostCrash fires at the period boundary, before any tick of p, so
  // the recovered member replays nothing it has not already done.
  const sim::FaultInjector* inj = member.pipeline->fault_injector();
  if (inj != nullptr && inj->crash_signal(member.host->now())) {
    ++member.recovery.crashes;
    member.health = MemberHealth::Down;
    recover(member, checkpoints, p, member.host->now());
    ++recoveries;
  }
  bool period_done = false;
  while (!period_done) {
    run_ticks();
    std::size_t stall_retries = 0;
    bool escalate = false;
    double fail_time = 0.0;
    while (!escalate) {
      try {
        const PeriodRecord& rec = member.pipeline->on_period();
        if (member.on_period) member.on_period(rec);
        if (recorder_) recorder_->record_period(member.name, rec);
        period_done = true;
        break;
      } catch (const StageStallError& e) {
        // The watchdog's deadline is a deterministic attempt budget:
        // retry the stage in place until the budget runs out, then
        // treat the stall as a crash.
        ++member.recovery.stalls;
        ++stall_retries;
        if (stall_retries < config_.watchdog_budget) continue;
        ++member.recovery.watchdog_trips;
        if (recoveries >= kMaxRecoveriesPerPeriod) throw;
        escalate = true;
        fail_time = e.time();
      } catch (const StageThrowError& e) {
        ++member.recovery.stage_throws;
        if (recoveries >= kMaxRecoveriesPerPeriod) throw;
        escalate = true;
        fail_time = e.time();
      } catch (const std::exception&) {
        // An uninjected stage defect: trap it like a crash so the
        // rest of the fleet keeps running, but give up once it proves
        // deterministic.
        if (recoveries >= kMaxRecoveriesPerPeriod) throw;
        escalate = true;
        fail_time = member.host->now();
      }
    }
    if (escalate) {
      member.health = MemberHealth::Down;
      recover(member, checkpoints, p, fail_time);
      ++recoveries;
      // loop: re-run this period's ticks on the recovered host
    }
  }
  if (config_.checkpoint_every > 0 &&
      (p + 1) % config_.checkpoint_every == 0) {
    std::string blob = encode_checkpoint(*member.pipeline);
    const sim::FaultInjector* cinj = member.pipeline->fault_injector();
    if (cinj != nullptr && cinj->checkpoint_corrupt(member.host->now())) {
      corrupt_checkpoint_blob(blob);
    }
    checkpoints.push_back(std::move(blob));
    if (checkpoints.size() > 2) checkpoints.erase(checkpoints.begin());
    ++member.recovery.checkpoints_saved;
  }
}

void FleetController::recover(Member& member,
                              std::vector<std::string>& checkpoints,
                              std::size_t period, double fail_time) const {
  member.health = MemberHealth::Recovering;
  // The crashed pipeline's completed history drives the divergence
  // check; capture it (encoded, so NaN coordinates compare exactly)
  // before the rebuild tears the pipeline down.
  std::vector<std::string> history;
  history.reserve(member.pipeline->records().size());
  for (const PeriodRecord& rec : member.pipeline->records()) {
    history.push_back(encode_record(rec));
  }
  // Newest usable checkpoint wins. A checkpoint that fails to restore is
  // dropped for good (it will not get better); with none left the member
  // cold-starts and replays the whole run.
  std::size_t restored = 0;
  bool warm = false;
  while (!checkpoints.empty() && !warm) {
    Member::Rebuilt fresh = member.rebuild();
    SA_REQUIRE(fresh.host != nullptr && fresh.pipeline != nullptr,
               "rebuild must produce a host and a pipeline");
    member.host = fresh.host;
    member.pipeline = fresh.pipeline;
    try {
      restored = restore_checkpoint(*member.pipeline, checkpoints.back());
      warm = true;
    } catch (const util::StateCodecError&) {
      ++member.recovery.corrupt_checkpoints_dropped;
      checkpoints.pop_back();
    }
  }
  if (!warm) {
    Member::Rebuilt fresh = member.rebuild();
    SA_REQUIRE(fresh.host != nullptr && fresh.pipeline != nullptr,
               "rebuild must produce a host and a pipeline");
    member.host = fresh.host;
    member.pipeline = fresh.pipeline;
    ++member.recovery.cold_starts;
    restored = 0;
  }
  // Mask every crash spec whose window had already opened, so the
  // handled failure cannot re-fire during the replay or immediately
  // after it. Must happen after the restore (which rewinds the horizon
  // to its checkpointed value).
  sim::FaultInjector* minj = member.pipeline->mutable_fault_injector();
  if (minj != nullptr) minj->set_crash_horizon(fail_time);
  if (member.on_reset) member.on_reset();
  // The whole replay is silent: hooks, the recorder and the observer
  // already consumed periods 0..period-1 on the crashed run.
  obs::Observer* observer = member.pipeline->observer();
  member.pipeline->set_observer(nullptr);
  // Fast-forward through the restored prefix: re-run the ticks, re-apply
  // the journalled actuations at their original period boundaries. Tick
  // arithmetic is deterministic, so the host lands bit-for-bit where the
  // checkpointed run stood.
  SimHostActuationPort& port = member.pipeline->actuation_port();
  for (std::size_t k = 0; k < restored; ++k) {
    member.host->run(member.ticks_per_period);
    port.replay_delivered(member.host->now());
  }
  // Gap replay: live periods from the checkpoint to the failure. The
  // restored RNG streams re-draw exactly what the crashed run drew, so
  // every regenerated record must equal the history — anything else is a
  // divergence (determinism bug or state missing from the snapshot).
  for (std::size_t q = restored; q < period; ++q) {
    // Cluster directives (attaches, gates) acted at this period's
    // opening boundary on the crashed run; re-apply them before the
    // ticks so the replayed stream matches byte for byte.
    if (member.replay_directives) member.replay_directives(q);
    member.host->run(member.ticks_per_period);
    const PeriodRecord& rec = member.pipeline->on_period();
    if (q >= history.size() || encode_record(rec) != history[q]) {
      ++member.recovery.divergences;
    }
  }
  member.recovery.gap_periods_replayed += period - restored;
  // The failed period's own boundary directives also died with the
  // crashed objects — restore them before its ticks re-run.
  if (member.replay_directives) member.replay_directives(period);
  if (observer != nullptr) member.pipeline->set_observer(observer);
  ++member.recovery.recoveries;
  member.health = MemberHealth::Normal;
}

void FleetController::run_lockstep() {
  // Coordinated fleets are sequential by construction: the hook's
  // decisions must see every member's state for period p before any
  // member starts period p+1, and determinism requires a fixed member
  // visit order. workers is deliberately ignored.
  const std::size_t periods = members_.front().periods;
  for (const Member& m : members_) {
    SA_REQUIRE(m.periods == periods,
               "lockstep fleets need a shared period count");
  }
  std::vector<std::vector<std::string>> checkpoints(members_.size());
  for (std::size_t p = 0; p < periods; ++p) {
    for (std::size_t i = 0; i < members_.size(); ++i) {
      Member& m = members_[i];
      if (m.rebuild) {
        drive_one_period_supervised(m, p, checkpoints[i]);
      } else {
        drive_one_period(m);
      }
    }
    // No hook after the final period: the run is over, and a boundary
    // mutation there would touch hosts that never tick again.
    if (p + 1 < periods) period_hook_(p);
  }
}

void FleetController::run() {
  if (members_.empty()) return;
  if (period_hook_) {
    run_lockstep();
    return;
  }
  std::size_t workers = std::min(config_.workers, members_.size());
  if (workers <= 1) {
    for (Member& m : members_) drive(m);
    return;
  }
  util::ThreadPool pool(workers);
  // RangeFn must not throw: capture per-member exceptions and surface
  // the first after the section ends.
  std::vector<std::exception_ptr> errors(members_.size());
  pool.for_ranges(members_.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      try {
        drive(members_[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace stayaway::core
