// Flash-crowd front-end model (DESIGN.md §18): a latency-sensitive
// request-serving tier whose offered load surges by a large multiplier
// for a bounded window — the canonical cluster-scheduling stressor
// (ClusterCoordinator.FlashCrowdMigrationBeatsPausing's headline
// scenario). Outside the surge the front end
// is comfortably provisioned; during it the CPU demand alone can exceed
// the host, so any batch neighbour pushes QoS under water and the only
// real remedies are pausing the neighbour (per-host Stay-Away) or moving
// it to a calm host (cluster migration).
//
// The model is fully deterministic: offered load is a pure function of
// time (base rate, surge window with linear ramps, optional workload
// trace scaling the base), and QoS is the smoothed completed/offered
// capacity ratio latched the same way the webservice latches it.
#pragma once

#include <optional>

#include "apps/qos_latch.hpp"
#include "sim/app_model.hpp"
#include "trace/trace.hpp"

namespace stayaway::apps {

struct FlashCrowdSpec {
  double base_rps = 120.0;        // steady-state offered load
  double surge_multiplier = 6.0;  // offered load factor inside the window
  double surge_start_s = 60.0;
  double surge_end_s = 120.0;
  double ramp_s = 8.0;  // linear onset/decay at the window edges
  double cpu_per_request = 0.006;
  double memory_base_mb = 300.0;
  double memory_per_rps_mb = 0.8;  // session state grows with the crowd
  double membw_per_request_mb = 3.0;
  double net_per_request_mb = 0.08;
  double qos_threshold = 0.8;  // minimum acceptable capacity ratio
  double smoothing = 0.35;     // EWMA for the capacity-ratio counter
  double duration_s = -1.0;    // <= 0: serves until externally bounded
};

class FlashCrowd final : public sim::AppModel, public sim::QosProbe {
 public:
  /// workload: optional intensity trace whose *absolute* sample values
  /// scale the base load, clamped to [0,1] (the surge multiplies on
  /// top); omit for a constant full base. Unlike the webservice, samples
  /// are not re-normalized by the trace's own min/max — a constant trace
  /// of 0.25 really means a quarter-loaded front end, which is how
  /// coordinated flash-crowd fleets provision their calm spare hosts.
  FlashCrowd(FlashCrowdSpec spec, std::optional<trace::Trace> workload);
  explicit FlashCrowd(FlashCrowdSpec spec = {})
      : FlashCrowd(spec, std::nullopt) {}

  std::string_view name() const override { return "flash-crowd"; }
  bool finished() const override;
  sim::ResourceDemand demand(sim::SimTime now) override;
  void advance(sim::SimTime now, double dt,
               const sim::Allocation& alloc) override;

  // QosProbe: value is the smoothed capacity ratio (completed / offered
  // requests) in [0,1]; threshold is spec.qos_threshold.
  double qos_value() const override { return smoothed_ratio_; }
  double qos_threshold() const override { return spec_.qos_threshold; }
  bool violated() const override { return latch_.violated(); }

  /// Offered load at time t (requests/s), surge included.
  double offered_rps(sim::SimTime now) const;
  /// Surge intensity in [0,1]: 0 outside the window, 1 at full crowd.
  double surge_level(sim::SimTime now) const;
  double completed_tps() const { return completed_tps_; }

 private:
  FlashCrowdSpec spec_;
  std::optional<trace::Trace> workload_;
  double smoothed_ratio_ = 1.0;
  QosLatch latch_;
  double completed_tps_ = 0.0;
  double elapsed_s_ = 0.0;
};

}  // namespace stayaway::apps
