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

void FleetController::drive_period(
    Member& member, std::size_t p,
    std::vector<std::string>& checkpoints) const {
  // Injected faults are masked behind the crash horizon once handled, so
  // only a genuine (deterministic) defect can make the same period fail
  // again; after this many recoveries the member is declared dead and
  // its exception surfaces through run().
  constexpr std::size_t kMaxRecoveriesPerPeriod = 3;
  const bool supervised = static_cast<bool>(member.rebuild);
  std::size_t recoveries = 0;
  // HostCrash fires at the period boundary, before any tick of p, so
  // the recovered member replays nothing it has not already done.
  const sim::FaultInjector* inj = member.pipeline->fault_injector();
  if (supervised && inj != nullptr &&
      inj->crash_signal(member.host->now())) {
    ++member.recovery.crashes;
    recover(member, checkpoints, p, member.host->now());
    ++recoveries;
  }
  for (;;) {
    for (std::size_t t = 0; t < member.ticks_per_period; ++t) {
      member.host->step();
      if (member.on_tick) member.on_tick();
    }
    bool failed = false;
    double fail_time = 0.0;
    for (std::size_t stall_retries = 0; !failed;) {
      try {
        const PeriodRecord& rec = member.pipeline->on_period();
        if (member.on_period) member.on_period(rec);
        if (recorder_) recorder_->record_period(member.name, rec);
        break;
      } catch (const std::exception& e) {
        if (!supervised) throw;
        if (const auto* stall = dynamic_cast<const StageStallError*>(&e)) {
          // The watchdog's deadline is a deterministic attempt budget:
          // retry the stage in place until the budget runs out, then
          // treat the stall as a crash.
          ++member.recovery.stalls;
          if (++stall_retries < config_.watchdog_budget) continue;
          ++member.recovery.watchdog_trips;
          fail_time = stall->time();
        } else if (const auto* thrown =
                       dynamic_cast<const StageThrowError*>(&e)) {
          ++member.recovery.stage_throws;
          fail_time = thrown->time();
        } else {
          // An uninjected stage defect: trap it like a crash so the rest
          // of the fleet keeps running, but give up once it proves
          // deterministic.
          fail_time = member.host->now();
        }
        if (recoveries >= kMaxRecoveriesPerPeriod) throw;
        failed = true;
      }
    }
    if (!failed) break;
    recover(member, checkpoints, p, fail_time);
    ++recoveries;
    // loop: re-run this period's ticks on the recovered host
  }
  if (supervised && config_.checkpoint_every > 0 &&
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
  // The crashed pipeline's completed history drives the divergence
  // check; capture it (encoded, so NaN coordinates compare exactly)
  // before the rebuild tears the pipeline down.
  std::vector<std::string> history;
  history.reserve(member.pipeline->records().size());
  for (const PeriodRecord& rec : member.pipeline->records()) {
    history.push_back(encode_record(rec));
  }
  auto rebuild = [&member] {
    Member::Rebuilt fresh = member.rebuild();
    SA_REQUIRE(fresh.host != nullptr && fresh.pipeline != nullptr,
               "rebuild must produce a host and a pipeline");
    member.host = fresh.host;
    member.pipeline = fresh.pipeline;
  };
  // Newest usable checkpoint wins; warm_start fast-forwards the fresh
  // host through the restored prefix (ticks re-run, journalled
  // actuations re-applied, no observer or hook activity). A checkpoint
  // that fails to restore is dropped for good (it will not get better);
  // with none left the member cold-starts and replays the whole run.
  std::size_t restored = 0;
  bool warm = false;
  while (!checkpoints.empty() && !warm) {
    rebuild();
    try {
      restored = warm_start(*member.pipeline, *member.host,
                            member.ticks_per_period, checkpoints.back());
      warm = true;
    } catch (const util::StateCodecError&) {
      ++member.recovery.corrupt_checkpoints_dropped;
      checkpoints.pop_back();
    }
  }
  if (!warm) {
    rebuild();
    ++member.recovery.cold_starts;
  }
  // Mask every crash spec whose window had already opened, so the
  // handled failure cannot re-fire during the replay or immediately
  // after it. Must happen after the restore (which rewinds the horizon
  // to its checkpointed value).
  sim::FaultInjector* minj = member.pipeline->mutable_fault_injector();
  if (minj != nullptr) minj->set_crash_horizon(fail_time);
  if (member.on_reset) member.on_reset();
  // The gap replay is silent: hooks, the recorder and the observer
  // already consumed periods 0..period-1 on the crashed run.
  obs::Observer* observer = member.pipeline->observer();
  member.pipeline->set_observer(nullptr);
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
}

void FleetController::run() {
  if (members_.empty()) return;
  std::size_t periods = 0;
  for (const Member& m : members_) periods = std::max(periods, m.periods);
  if (period_hook_) {
    for (const Member& m : members_) {
      SA_REQUIRE(m.periods == periods,
                 "coordinated fleets need a shared period count");
    }
  }
  // The hook's decisions must see every member's state for period p
  // before any member starts period p+1, so a coordinated fleet joins
  // the pool after every period; an independent one never does.
  const std::size_t segment = period_hook_ ? 1 : periods;
  util::ThreadPool pool(std::min(config_.workers, members_.size()));
  std::vector<std::vector<std::string>> checkpoints(members_.size());
  // RangeFn must not throw: capture per-member exceptions and surface
  // the first after the segment ends.
  std::vector<std::exception_ptr> errors(members_.size());
  for (std::size_t begin = 0; begin < periods; begin += segment) {
    const std::size_t end = begin + segment;
    pool.for_ranges(members_.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        Member& m = members_[i];
        try {
          for (std::size_t p = begin; p < std::min(end, m.periods); ++p) {
            drive_period(m, p, checkpoints[i]);
          }
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    });
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    // No hook after the final period: the run is over, and a boundary
    // mutation there would touch hosts that never tick again.
    if (period_hook_ && end < periods) period_hook_(begin);
  }
}

}  // namespace stayaway::core
