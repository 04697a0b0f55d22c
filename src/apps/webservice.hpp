// Webservice model (the paper's second latency-sensitive app).
//
// §7.1: a data-serving service with a Memcached layer (here: LruCache)
// that performs statistical analytics before serving, exercised with
// CPU-intensive, memory-intensive and mixed workloads over a monitored-
// metrics dataset. Each tick the model replays a sample of Zipf-skewed
// key lookups against the cache; the measured miss rate drives disk I/O
// demand, the analytics mix drives CPU and memory-bandwidth demand, and
// the cache working set drives memory-capacity demand (the channel that
// makes it swap-sensitive to memory-hungry batch neighbours, §7.2).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "apps/lru_cache.hpp"
#include "apps/qos_latch.hpp"
#include "sim/app_model.hpp"
#include "stats/zipf.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace stayaway::apps {

enum class WorkloadMix {
  CpuIntensive,
  MemIntensive,
  Mixed,
};

/// Human-readable mix name ("cpu", "mem", "mix").
const char* to_string(WorkloadMix mix);

struct WebserviceSpec {
  WorkloadMix mix = WorkloadMix::Mixed;
  double peak_rps = 400.0;        // offered load at workload peak
  double min_rps_fraction = 0.2;  // offered load at valley, as peak fraction
  std::size_t keyspace = 200000;  // distinct objects in the dataset
  double zipf_exponent = 0.9;
  double object_mb = 0.01;        // ~10 KB per cached object
  std::size_t probe_accesses = 400;  // cache lookups replayed per tick
  double base_memory_mb = 200.0;  // service runtime outside the cache
  double qos_threshold = 0.8;     // minimum acceptable capacity ratio
  double smoothing = 0.35;        // EWMA for the capacity-ratio counter
  double duration_s = -1.0;       // <= 0: serves until externally bounded
  std::uint64_t seed = 7;
};

class Webservice final : public sim::AppModel, public sim::QosProbe {
 public:
  /// workload: offered-load intensity over time (normalized to [0,1]);
  /// omit for constant peak load.
  Webservice(WebserviceSpec spec, std::optional<trace::Trace> workload);
  explicit Webservice(WebserviceSpec spec = {})
      : Webservice(spec, std::nullopt) {}

  std::string_view name() const override { return "webservice"; }
  bool finished() const override;
  sim::ResourceDemand demand(sim::SimTime now) override;
  void advance(sim::SimTime now, double dt, const sim::Allocation& alloc) override;

  // QosProbe: value is the smoothed capacity ratio (completed / offered
  // transactions) in [0,1]; threshold is spec.qos_threshold.
  double qos_value() const override { return smoothed_ratio_; }
  double qos_threshold() const override { return spec_.qos_threshold; }
  bool violated() const override { return latch_.violated(); }

  /// Offered load at time t (requests/s).
  double offered_rps(sim::SimTime now) const;
  /// Transactions completed in the last tick, per second.
  double completed_tps() const { return completed_tps_; }
  /// Lifetime cache hit rate.
  // sa-lint: test-observer(tests compare cache models and fleet hosts)
  double cache_hit_rate() const { return cache_.hit_rate(); }
  const LruCache& cache() const { return cache_; }

 private:
  /// Per-request CPU seconds for the current mix.
  double cpu_per_request() const;
  /// Cache capacity (entries) for the current mix.
  std::size_t cache_entries() const;
  /// Per-request memory-bus bytes factor for the current mix.
  double membw_per_request_mb() const;

  WebserviceSpec spec_;
  std::optional<trace::Trace> workload_;
  LruCache cache_;
  stats::ZipfSampler keys_;
  Rng rng_;
  std::vector<std::uint32_t> draws_;  // this tick's key ranks, reused
  double smoothed_ratio_ = 1.0;
  QosLatch latch_;
  double completed_tps_ = 0.0;
  double last_miss_rate_ = 0.0;
  double elapsed_s_ = 0.0;
};

}  // namespace stayaway::apps
