#include "replay/fuzz.hpp"

#include <cmath>
#include <utility>

#include "replay/replay.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stayaway::replay {

namespace {

constexpr harness::SensitiveKind kSensitiveKinds[] = {
    harness::SensitiveKind::VlcStream, harness::SensitiveKind::WebserviceCpu,
    harness::SensitiveKind::WebserviceMem,
    harness::SensitiveKind::WebserviceMix,
    harness::SensitiveKind::VlcTranscode,
};

constexpr harness::BatchKind kBatchKinds[] = {
    harness::BatchKind::CpuBomb,        harness::BatchKind::MemBomb,
    harness::BatchKind::Soplex,         harness::BatchKind::TwitterAnalysis,
    harness::BatchKind::VlcTranscode,   harness::BatchKind::Batch1,
    harness::BatchKind::Batch2,
};

constexpr sim::FaultKind kFaultKinds[] = {
    sim::FaultKind::SensorDropout, sim::FaultKind::StuckAt,
    sim::FaultKind::Spike,         sim::FaultKind::NonFinite,
    sim::FaultKind::StaleSample,   sim::FaultKind::QosBlind,
    sim::FaultKind::PauseFail,     sim::FaultKind::ResumeFail,
};

template <typename T, std::size_t N>
T pick(Rng& rng, const T (&options)[N]) {
  return options[rng.index(N)];
}

/// One random scenario within the declared mutation bounds. Every bound
/// keeps the document valid (parse-clean), so a mutation can only expose
/// controller bugs, never parser rejections. Ingest draws (when enabled)
/// come strictly after every historical draw, so disabling them restores
/// the historical draw stream exactly (pinned-seed byte identity).
harness::FleetScenario mutate(Rng& rng, const FuzzConfig& config) {
  harness::Scenario base;
  harness::ExperimentSpec& spec = base.spec;
  spec.policy = harness::PolicyKind::StayAway;
  spec.sensitive = pick(rng, kSensitiveKinds);
  spec.batch = pick(rng, kBatchKinds);
  spec.duration_s = std::floor(rng.uniform(20.0, 61.0));
  spec.period_s = 1.0;
  spec.tick_s = 0.1;
  spec.sensitive_start_s = 2.0;
  spec.batch_start_s = std::floor(rng.uniform(5.0, 15.0));
  spec.seed = rng();
  base.workload = rng.chance(0.5) ? "diurnal" : "constant";
  base.workload_cycles = rng.uniform(1.0, 4.0);

  core::GovernorConfig& gov = spec.stayaway.governor;
  gov.beta_initial = rng.uniform(0.005, 0.05);
  gov.beta_increment = rng.uniform(0.0, 0.02);
  gov.beta_max = rng.chance(0.2)
                     ? 0.0  // cap disabled: the runaway-beta regime
                     : std::max(gov.beta_initial, rng.uniform(0.05, 0.3));
  gov.resume_grace_s = rng.uniform(1.0, 5.0);
  gov.starvation_patience_s = std::floor(rng.uniform(5.0, 20.0));
  gov.random_resume_probability = rng.uniform(0.0, 0.4);
  spec.stayaway.sampler.noise_fraction = rng.uniform(0.0, 0.1);

  sim::FaultPlan plan;
  plan.seed = rng();
  std::size_t fault_count = 1 + rng.index(4);
  for (std::size_t i = 0; i < fault_count; ++i) {
    sim::FaultSpec fault;
    fault.kind = pick(rng, kFaultKinds);
    fault.start_s = std::floor(rng.uniform(0.0, spec.duration_s * 0.6));
    fault.end_s = fault.start_s + std::floor(rng.uniform(3.0, 30.0));
    fault.probability = rng.uniform(0.2, 1.0);
    fault.magnitude = rng.uniform(2.0, 16.0);
    fault.dimension = rng.chance(0.5) ? -1 : static_cast<int>(rng.index(5));
    plan.faults.push_back(fault);
  }
  spec.faults = std::move(plan);

  std::size_t extra_vms = rng.index(3);
  for (std::size_t i = 0; i < extra_vms; ++i) {
    harness::ExtraVmSpec vm;
    vm.name = "fz" + std::to_string(i);
    vm.kind = pick(rng, kBatchKinds);
    vm.start_s = std::floor(rng.uniform(0.0, spec.duration_s / 2.0));
    spec.extra_batch.push_back(std::move(vm));
  }

  if (config.ingest) {
    // Streaming ingestion mutations (DESIGN.md §15): ring source at a
    // randomized base rate, a small ring so burst windows can overflow
    // it, and optionally a burst window plus source-side ingest
    // anomalies (late/out-of-order and duplicate deliveries).
    monitor::IngestConfig& ing = spec.stayaway.ingest;
    ing.source = monitor::IngestSource::Ring;
    ing.rate_hz = std::floor(rng.uniform(8.0, 64.0));
    ing.ring_capacity = std::size_t{64} << rng.index(4);  // 64..512
    if (rng.chance(0.5)) {
      ing.burst_rate_hz = std::floor(rng.uniform(128.0, 1024.0));
      ing.burst_start_s = std::floor(rng.uniform(0.0, spec.duration_s * 0.5));
      ing.burst_end_s = ing.burst_start_s + std::floor(rng.uniform(3.0, 15.0));
    }
    if (rng.chance(0.5)) {
      sim::FaultSpec fault;
      fault.kind = rng.chance(0.5) ? sim::FaultKind::IngestDelay
                                   : sim::FaultKind::IngestDuplicate;
      fault.start_s = std::floor(rng.uniform(0.0, spec.duration_s * 0.6));
      fault.end_s = fault.start_s + std::floor(rng.uniform(3.0, 30.0));
      fault.probability = rng.uniform(0.2, 1.0);
      fault.magnitude = 1.0;  // unused by ingest anomalies
      fault.dimension = -1;
      spec.faults->faults.push_back(fault);
    }
  }

  std::size_t host_count = 1 + rng.index(3);

  if (config.recovery) {
    // Crash-class mutations (DESIGN.md §17): their presence alone routes
    // the run through the fleet supervisor (has_crash_faults), so the
    // shrunk run-log replays its own recovery. Drawn strictly after
    // every other mutation — ingest included — so the historical draw
    // streams survive with this flag off.
    constexpr sim::FaultKind kCrashKinds[] = {
        sim::FaultKind::HostCrash, sim::FaultKind::StageStall,
        sim::FaultKind::StageThrow, sim::FaultKind::CheckpointCorrupt,
    };
    std::size_t crash_count = 1 + rng.index(2);
    for (std::size_t i = 0; i < crash_count; ++i) {
      sim::FaultSpec fault;
      fault.kind = pick(rng, kCrashKinds);
      fault.start_s = std::floor(rng.uniform(5.0, spec.duration_s * 0.8));
      fault.end_s = fault.start_s + std::floor(rng.uniform(2.0, 10.0));
      fault.probability = 1.0;  // crash queries never draw from the plan RNG
      fault.magnitude = std::floor(rng.uniform(1.0, 6.0));  // stall attempts
      fault.dimension = -1;
      spec.faults->faults.push_back(fault);
    }
  }

  harness::FleetScenario doc;
  doc.base = std::move(base);
  return canonical_fleet(doc, host_count);
}

/// Host-periods one recorded run of this fleet costs against the budget.
std::size_t run_cost(const harness::FleetScenario& fleet) {
  std::size_t cost = 0;
  for (const auto& [name, scenario] : fleet.hosts) {
    cost += static_cast<std::size_t>(
        std::llround(scenario.spec.duration_s / scenario.spec.period_s));
  }
  return cost;
}

/// Runs the fleet and scans every host's stream; returns the first
/// detector that fires.
std::optional<std::string> run_and_detect(const harness::FleetScenario& fleet,
                                          RecordedRun* out) {
  RecordedRun run = record_run(fleet);
  std::optional<std::string> fired;
  for (std::size_t h = 0; h < run.result.hosts.size() && !fired; ++h) {
    fired = detect_instability(run.result.hosts[h].result.stayaway_records,
                               fleet.hosts[h].second.spec.stayaway.governor);
  }
  // Checkpoint divergence (DESIGN.md §17): the supervisor's gap replay
  // regenerated a period that differs byte-wise from the pre-crash
  // history — the restore was not exact. Read off the RecoveryReport
  // rather than the records, which by definition look clean.
  for (std::size_t h = 0; h < run.result.hosts.size() && !fired; ++h) {
    if (run.result.hosts[h].recovery.divergences > 0) {
      fired = "checkpoint-divergence";
    }
  }
  if (out != nullptr) *out = std::move(run);
  return fired;
}

/// Greedy deterministic shrink: drop hosts, then fault lines, then extra
/// VMs, then halve the duration — keeping every step on which the same
/// detector still fires, until no step applies or the budget runs out.
harness::FleetScenario shrink(harness::FleetScenario fleet,
                              const std::string& detector,
                              const FuzzConfig& config, FuzzReport& report) {
  auto try_candidate = [&](const harness::FleetScenario& raw,
                           harness::FleetScenario* accepted) {
    if (report.periods_executed >= config.max_periods) return false;
    harness::FleetScenario candidate = canonical_fleet(raw, 0);
    report.periods_executed += run_cost(candidate);
    std::optional<std::string> fired = run_and_detect(candidate, nullptr);
    if (fired.has_value() && *fired == detector) {
      *accepted = std::move(candidate);
      return true;
    }
    return false;
  };

  bool improved = true;
  while (improved && report.periods_executed < config.max_periods) {
    improved = false;
    // Fewer hosts first: the largest single reduction.
    while (fleet.hosts.size() > 1) {
      harness::FleetScenario candidate = fleet;
      candidate.hosts.pop_back();
      if (!try_candidate(candidate, &fleet)) break;
      improved = true;
    }
    // Drop fault lines (the same line from every host — hosts are
    // replicas of one mutation, so indices line up). Crash-class lines
    // are exempt: supervised recovery is byte-identical by construction,
    // so no record-stream detector ever depends on them and dropping
    // would always succeed — stripping every --recovery finding down to
    // a default-mode one. Keeping them means a committed recovery-mode
    // regression replays its crash → restore path on every CI run; the
    // window-narrowing step below still tightens their intervals.
    std::size_t fault_count =
        fleet.hosts.front().second.spec.faults.has_value()
            ? fleet.hosts.front().second.spec.faults->faults.size()
            : 0;
    for (std::size_t k = fault_count; k-- > 0;) {
      if (sim::is_crash_fault(
              fleet.hosts.front().second.spec.faults->faults[k].kind)) {
        continue;
      }
      harness::FleetScenario candidate = fleet;
      for (auto& [name, scenario] : candidate.hosts) {
        auto& faults = scenario.spec.faults->faults;
        if (k < faults.size()) {
          faults.erase(faults.begin() + static_cast<std::ptrdiff_t>(k));
        }
        if (faults.empty()) scenario.spec.faults.reset();
      }
      if (try_candidate(candidate, &fleet)) improved = true;
    }
    // Narrow the surviving fault windows: halve each window's length
    // (floor 1 s) while the same detector still fires. Repeated rounds
    // of the outer loop shrink a crash or fault window to the tightest
    // interval that still reproduces the finding.
    std::size_t windows =
        fleet.hosts.front().second.spec.faults.has_value()
            ? fleet.hosts.front().second.spec.faults->faults.size()
            : 0;
    for (std::size_t k = 0; k < windows; ++k) {
      harness::FleetScenario candidate = fleet;
      bool applies = false;
      for (auto& [name, scenario] : candidate.hosts) {
        if (!scenario.spec.faults.has_value()) continue;
        auto& faults = scenario.spec.faults->faults;
        if (k >= faults.size()) continue;
        sim::FaultSpec& f = faults[k];
        double length = f.end_s - f.start_s;
        if (length <= 1.0) continue;
        f.end_s = f.start_s + std::max(1.0, std::floor(length / 2.0));
        applies = true;
      }
      if (applies && try_candidate(candidate, &fleet)) improved = true;
    }
    // Drop extra VMs.
    std::size_t vm_count = fleet.hosts.front().second.spec.extra_batch.size();
    for (std::size_t k = vm_count; k-- > 0;) {
      harness::FleetScenario candidate = fleet;
      for (auto& [name, scenario] : candidate.hosts) {
        auto& vms = scenario.spec.extra_batch;
        if (k < vms.size()) {
          vms.erase(vms.begin() + static_cast<std::ptrdiff_t>(k));
        }
      }
      if (try_candidate(candidate, &fleet)) improved = true;
    }
    // Halve the duration (floor 10 s).
    double duration = fleet.hosts.front().second.spec.duration_s;
    if (duration > 10.0) {
      harness::FleetScenario candidate = fleet;
      double halved = std::max(10.0, std::floor(duration / 2.0));
      for (auto& [name, scenario] : candidate.hosts) {
        scenario.spec.duration_s = halved;
      }
      if (try_candidate(candidate, &fleet)) improved = true;
    }
    // Minimize ingestion-rate windows, not just what fault/VM lines are
    // present: drop the burst window outright, then narrow it, then
    // halve the base rate (floor 8 Hz) — each step only if the finding
    // survives, so an overflow finding shrinks to the slowest stream
    // that still overflows.
    // (Snapshot by value before each step: an accepted candidate
    // reassigns `fleet`, invalidating references into it.)
    monitor::IngestConfig ing = fleet.hosts.front().second.spec.stayaway.ingest;
    if (ing.streaming()) {
      if (ing.burst_rate_hz > 0.0) {
        harness::FleetScenario candidate = fleet;
        for (auto& [name, scenario] : candidate.hosts) {
          monitor::IngestConfig& c = scenario.spec.stayaway.ingest;
          c.burst_rate_hz = 0.0;
          c.burst_start_s = 0.0;
          c.burst_end_s = 0.0;
        }
        if (try_candidate(candidate, &fleet)) improved = true;
      }
      ing = fleet.hosts.front().second.spec.stayaway.ingest;
      if (ing.burst_rate_hz > 0.0 &&
          ing.burst_end_s - ing.burst_start_s > 2.0) {
        harness::FleetScenario candidate = fleet;
        double narrowed = std::max(
            1.0, std::floor((ing.burst_end_s - ing.burst_start_s) / 2.0));
        for (auto& [name, scenario] : candidate.hosts) {
          monitor::IngestConfig& c = scenario.spec.stayaway.ingest;
          c.burst_end_s = c.burst_start_s + narrowed;
        }
        if (try_candidate(candidate, &fleet)) improved = true;
      }
      ing = fleet.hosts.front().second.spec.stayaway.ingest;
      if (ing.rate_hz > 8.0) {
        harness::FleetScenario candidate = fleet;
        double halved_rate = std::max(8.0, std::floor(ing.rate_hz / 2.0));
        for (auto& [name, scenario] : candidate.hosts) {
          scenario.spec.stayaway.ingest.rate_hz = halved_rate;
        }
        if (try_candidate(candidate, &fleet)) improved = true;
      }
    }
  }
  return fleet;
}

}  // namespace

std::optional<std::string> detect_instability(
    const std::vector<core::PeriodRecord>& records,
    const core::GovernorConfig& governor) {
  constexpr double kEps = 1e-9;
  // Window/streak thresholds are sized for the fuzzer's 20-60 s runs at
  // 1 s periods: tight enough to fire inside a run, loose enough that a
  // healthy controller under the same faults stays quiet.
  constexpr std::size_t kThrashPauses = 8;     // pauses...
  constexpr std::size_t kThrashWindow = 20;    // ...within this many periods
  constexpr std::size_t kFlapTransitions = 6;  // Normal<->Degraded edges...
  constexpr std::size_t kFlapWindow = 40;      // ...within this many periods
  constexpr std::size_t kLedgerStuck = 15;     // consecutive pending periods
  constexpr std::size_t kStarvationSlack = 30;  // periods past the patience

  std::vector<std::size_t> pause_at;
  std::vector<std::size_t> flap_at;
  std::size_t pending_streak = 0;
  std::size_t starve_streak = 0;
  const std::size_t starve_limit =
      static_cast<std::size_t>(std::llround(governor.starvation_patience_s)) +
      kStarvationSlack;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const core::PeriodRecord& rec = records[i];
    if (!std::isfinite(rec.state.x) || !std::isfinite(rec.state.y) ||
        !std::isfinite(rec.stress) || !std::isfinite(rec.beta)) {
      return "non-finite-map";
    }
    if (rec.beta + kEps < governor.beta_initial ||
        (governor.beta_max > 0.0 && rec.beta > governor.beta_max + kEps)) {
      return "beta-out-of-band";
    }
    if (rec.action == core::ThrottleAction::Pause) {
      pause_at.push_back(i);
      if (pause_at.size() >= kThrashPauses &&
          i - pause_at[pause_at.size() - kThrashPauses] < kThrashWindow) {
        return "pause-thrash";
      }
    }
    if (i > 0) {
      core::DegradationState prev = records[i - 1].degradation;
      bool normal_degraded_edge =
          (prev == core::DegradationState::Normal &&
           rec.degradation == core::DegradationState::Degraded) ||
          (prev == core::DegradationState::Degraded &&
           rec.degradation == core::DegradationState::Normal);
      if (normal_degraded_edge) {
        flap_at.push_back(i);
        if (flap_at.size() >= kFlapTransitions &&
            i - flap_at[flap_at.size() - kFlapTransitions] < kFlapWindow) {
          return "degradation-flap";
        }
      }
    }
    pending_streak = rec.actuation_pending ? pending_streak + 1 : 0;
    if (pending_streak >= kLedgerStuck) return "retry-ledger-stuck";
    bool starving = rec.batch_paused_after && rec.qos_visible &&
                    !rec.violation_observed && !rec.violation_predicted;
    starve_streak = starving ? starve_streak + 1 : 0;
    if (starve_streak >= starve_limit) return "batch-starvation";
  }
  // Queue overflow / backpressure (DESIGN.md §15): a ring-fed run whose
  // emission rate outpaces the drain sheds this many samples. Checked after
  // the scan so the historical detectors keep their priority (pinned
  // seeds must keep reproducing their committed findings).
  constexpr std::size_t kOverflowDrops = 64;
  std::size_t overflow = 0;
  for (const core::PeriodRecord& rec : records) overflow += rec.overflow_drops;
  if (overflow >= kOverflowDrops) return "ingest-overflow";
  // QoS-violation burst: the controller let this many observed
  // violations through inside a short window — prevention has
  // effectively collapsed. A healthy Stay-Away run stays in the low
  // single-digit percents, so a dense burst marks a real instability.
  // Also checked after the scan so the committed pinned-seed findings
  // keep their historical detectors.
  constexpr std::size_t kBurstViolations = 10;
  constexpr std::size_t kBurstWindow = 14;
  std::vector<std::size_t> violation_at;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!records[i].violation_observed) continue;
    violation_at.push_back(i);
    if (violation_at.size() >= kBurstViolations &&
        i - violation_at[violation_at.size() - kBurstViolations] <
            kBurstWindow) {
      return "qos-violation-burst";
    }
  }
  return std::nullopt;
}

FuzzReport fuzz_scenarios(const FuzzConfig& config) {
  SA_REQUIRE(config.runs >= 1, "a fuzz batch needs at least one run");
  FuzzReport report;
  Rng rng(config.seed);
  for (std::size_t run_index = 0;
       run_index < config.runs && report.periods_executed < config.max_periods;
       ++run_index) {
    harness::FleetScenario fleet = mutate(rng, config);
    report.periods_executed += run_cost(fleet);
    ++report.runs_executed;
    std::optional<std::string> fired = run_and_detect(fleet, nullptr);
    if (!fired.has_value()) continue;
    harness::FleetScenario minimal = shrink(fleet, *fired, config, report);
    RecordedRun final_run;
    report.periods_executed += run_cost(minimal);
    std::optional<std::string> still = run_and_detect(minimal, &final_run);
    // The shrunk scenario re-fires by construction; tolerate a detector
    // drifting between shrink steps by recording whichever one held.
    final_run.log.detector = still.value_or(*fired);
    report.findings.push_back(
        {final_run.log.detector, run_index, std::move(final_run.log)});
  }
  return report;
}

}  // namespace stayaway::replay
