// Single-host experiment: a host, a sensitive app, a batch set and a
// policy, run through the co-location lifecycle as a fleet of one host
// (harness/fleet.hpp); records the series the paper's figures are built
// from.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "core/template_store.hpp"
#include "harness/scenarios.hpp"
#include "obs/observer.hpp"
#include "sim/faults.hpp"

namespace stayaway::harness {

enum class PolicyKind {
  NoPrevention,
  StayAway,
  Reactive,
  StaticThreshold,
};

const char* to_string(PolicyKind kind);
/// Inverse of to_string; throws PreconditionError on unknown names.
PolicyKind policy_kind_from_string(const std::string& name);

/// An additional named batch VM (scenario files: `vm = name:kind[:start_s]`).
/// Names must be unique across the experiment.
struct ExtraVmSpec {
  std::string name;
  BatchKind kind = BatchKind::CpuBomb;
  double start_s = 15.0;
};

struct ExperimentSpec {
  sim::HostSpec host = paper_host();
  SensitiveKind sensitive = SensitiveKind::VlcStream;
  BatchKind batch = BatchKind::TwitterAnalysis;
  PolicyKind policy = PolicyKind::StayAway;
  /// The single config entry point: Stay-Away knobs plus the monitor's
  /// sampler options (stayaway.sampler). Used when policy == StayAway.
  core::StayAwayConfig stayaway;
  /// Optional observability attachment (non-owning; must outlive the
  /// run). The Stay-Away pipeline publishes loop metrics/events into it
  /// and the harness logs every policy's per-period decision through its
  /// sink.
  /// Purely passive: results are identical with or without it.
  obs::Observer* observer = nullptr;
  /// Offered-load workload for the sensitive app; nullopt = constant peak.
  std::optional<trace::Trace> workload;
  /// Seed the Stay-Away map from a previous run's template (§6).
  std::optional<core::StateTemplate> seed_template;
  /// Deterministic fault plan (DESIGN.md §12): sensor dropout/corruption,
  /// QoS-blind windows, dropped pause/resume commands. Installed into the
  /// Stay-Away pipeline when policy == StayAway; an absent or empty plan
  /// leaves the run byte-identical to the fault-free loop.
  std::optional<sim::FaultPlan> faults;
  /// Extra named batch VMs beyond the `batch` kind's set; every VM must
  /// exist before the pipeline is constructed (the sampler fixes its
  /// metric layout then and refuses to sample a changed host).
  std::vector<ExtraVmSpec> extra_batch;
  double tick_s = 0.1;
  double period_s = 1.0;
  double duration_s = 300.0;
  double sensitive_start_s = 2.0;
  double batch_start_s = 15.0;
  std::uint64_t seed = 99;
};

struct ExperimentResult {
  // Per-period series, aligned by index.
  std::vector<double> time;
  std::vector<double> qos;            // normalized: 1.0 == threshold
  std::vector<int> violated;          // 1 when the period saw a violation
  std::vector<double> utilization;    // host CPU utilization, period average
  std::vector<int> batch_running;     // 1 when any batch VM ran this period
  std::vector<double> offered_tps;    // webservice only; else empty
  std::vector<double> completed_tps;  // webservice only; else empty

  // Aggregates over the co-located portion of the run.
  std::size_t violation_periods = 0;
  double violation_fraction = 0.0;
  double avg_utilization = 0.0;
  double avg_qos = 0.0;
  double batch_cpu_work = 0.0;      // core-seconds delivered to batch VMs
  double sensitive_cpu_work = 0.0;  // core-seconds delivered to the sensitive VM

  // Stay-Away internals (populated when policy == StayAway).
  std::vector<core::PeriodRecord> stayaway_records;
  core::PredictionTally tally;
  std::size_t pauses = 0;
  std::size_t resumes = 0;
  // Degraded-mode telemetry (DESIGN.md §12; zero on fault-free runs).
  std::size_t degraded_periods = 0;   // periods spent in Degraded
  std::size_t failsafe_periods = 0;   // periods spent in Failsafe
  std::size_t readings_quarantined = 0;
  std::size_t actuation_retries = 0;
  std::size_t actuation_abandoned = 0;
  double final_beta = 0.0;
  std::size_t representative_count = 0;
  double final_stress = 0.0;
  std::optional<core::StateTemplate> exported_template;
  /// Final 2-D positions of every representative (aligned with the
  /// exported template's entries), for map-geometry analyses.
  mds::Embedding final_map;
};

/// Runs one experiment to completion: run_fleet over a single host.
ExperimentResult run_experiment(const ExperimentSpec& spec);

/// Convenience: the isolated baseline of the same sensitive configuration
/// (batch == None, policy == NoPrevention), for gained-utilization math.
ExperimentResult run_isolated(ExperimentSpec spec);

/// Per-period gained utilization: co-located minus isolated, clamped at 0.
/// Series must come from specs differing only in batch/policy.
std::vector<double> gained_utilization(const ExperimentResult& colocated,
                                       const ExperimentResult& isolated);

}  // namespace stayaway::harness
