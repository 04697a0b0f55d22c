// Configuration of the Stay-Away runtime and its components.
//
// StayAwayConfig is the single config entry point: it embeds the
// monitor's SamplerConfig and IngestConfig (monitor/sample_source.hpp),
// so HostPipeline and harness::ExperimentSpec are configured through one
// object.
#pragma once

#include <cstddef>
#include <cstdint>

#include "monitor/sample_source.hpp"
#include "monitor/sampler.hpp"

namespace stayaway::core {

/// Governs the pause/resume policy of §3.3.
struct GovernorConfig {
  /// Initial beta: "maximum allowed distance between the states before
  /// resuming the batch application. Initially beta is set to 0.01."
  double beta_initial = 0.01;
  /// Added to beta when a resume immediately re-violates.
  double beta_increment = 0.005;
  /// Upper bound on adaptive beta. Repeated resume-then-re-violate cycles
  /// otherwise grow beta past the map diameter, where no within-pause
  /// movement can ever exceed it and a beta-triggered resume becomes
  /// permanently unreachable (only the anti-starvation lottery remains).
  /// Must be >= beta_initial; <= 0 disables the cap.
  double beta_max = 0.25;
  /// A violation within this window after a beta-triggered resume counts
  /// as a failed resume and bumps beta.
  double resume_grace_s = 3.0;
  /// Paused this long with sub-beta movement triggers the random
  /// anti-starvation resume lottery.
  double starvation_patience_s = 20.0;
  /// Per-period probability of the anti-starvation resume once eligible.
  double random_resume_probability = 0.15;
};

/// Degraded-mode control loop (DESIGN.md §12): how the runtime responds
/// when telemetry goes missing, readings go non-finite, the QoS probe
/// goes blind, or a pause/resume command does not take.
struct DegradationConfig {
  /// Master switch for the compensating responses (conservative
  /// prediction widening, QoS-blind failsafe, actuation retry). The
  /// quarantine stage itself always runs — a non-finite reading must
  /// never reach the embedder in any configuration — but with `enabled`
  /// false nothing else reacts: the no-degradation baseline that
  /// bench_faults compares against.
  bool enabled = true;
  /// Delivery rounds retried for a dropped pause/resume command before
  /// the ledger gives up and surfaces the divergence.
  std::size_t actuation_max_retries = 3;
};

/// How the map over representatives is (re)computed each period.
enum class EmbedMethod {
  SmacofWarm,  // full SMACOF, warm-started from the previous layout (default)
  Pca,         // PCA projection (ablation comparator, §2.2)
  LandmarkIncremental,  // streaming path (DESIGN.md §15): fit landmarks
                        // once, place only the NEW representatives each
                        // period — O(new points) — and refit (with
                        // Procrustes re-alignment) only when the set has
                        // doubled since the last fit
};

struct StayAwayConfig {
  /// Control period in seconds of simulated time.
  double period_s = 1.0;
  /// Representative-set merge radius in the normalized metric space (§4).
  double dedup_epsilon = 0.06;
  /// Hard bound on the representative count (embedding cost is super-
  /// linear in it); once reached, new samples snap to their nearest
  /// representative. 0 disables the bound.
  std::size_t max_representatives = 256;
  /// "with 5 samples to model uncertainty, we are able to achieve more
  /// than 90% accuracy" (§3.2.3).
  std::size_t prediction_samples = 5;
  /// When false the runtime observes, maps and predicts but never acts —
  /// used by the template-validation experiment (Fig. 18) and by the
  /// prediction-accuracy bench.
  bool actions_enabled = true;
  /// §2.1: "if multiple sensitive applications are co-scheduled Stay-Away
  /// can choose to migrate or scale resources of the lower priority
  /// sensitive application." When enabled and a pause is required while
  /// no batch VM is running, sensitive VMs with a lower priority than the
  /// highest-priority present sensitive VM are throttled instead.
  bool allow_sensitive_demotion = false;
  EmbedMethod embed_method = EmbedMethod::SmacofWarm;
  /// Landmark count when embed_method == LandmarkIncremental.
  std::size_t landmark_count = 24;
  /// Normalized stress-1 below which a warm-started SMACOF layout is
  /// accepted without the verifying cold run (§4 overhead: the cold run
  /// doubles the per-growth embedding cost and almost never wins once the
  /// map is established). 0 disables skipping — always run both solves
  /// and keep the better, the historical behaviour.
  double warm_skip_stress = 0.0;
  GovernorConfig governor;
  /// Degraded-mode responses to telemetry and actuation faults.
  DegradationConfig degradation;
  /// How the host monitor samples per-VM usage (metric set, §5 batch
  /// aggregation, measurement noise).
  monitor::SamplerConfig sampler;
  /// How samples reach the mapping stage (DESIGN.md §15): synchronous
  /// one-per-period (default) or an async per-host ring feed.
  monitor::IngestConfig ingest;
  std::uint64_t seed = 1234;
};

}  // namespace stayaway::core
