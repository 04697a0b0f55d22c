#include "apps/webservice.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stayaway::apps {

const char* to_string(WorkloadMix mix) {
  switch (mix) {
    case WorkloadMix::CpuIntensive:
      return "cpu";
    case WorkloadMix::MemIntensive:
      return "mem";
    case WorkloadMix::Mixed:
      return "mix";
  }
  return "unknown";
}

Webservice::Webservice(WebserviceSpec spec, std::optional<trace::Trace> workload)
    : spec_(spec),
      workload_(std::move(workload)),
      cache_(spec.keyspace, cache_entries()),
      keys_(spec.keyspace, spec.zipf_exponent),
      rng_(spec.seed),
      draws_(spec.probe_accesses) {
  SA_REQUIRE(spec.peak_rps > 0.0, "peak load must be positive");
  SA_REQUIRE(spec.qos_threshold > 0.0 && spec.qos_threshold <= 1.0,
             "threshold must be a ratio in (0,1]");
  SA_REQUIRE(spec.smoothing > 0.0 && spec.smoothing <= 1.0,
             "smoothing factor must be in (0,1]");
}

bool Webservice::finished() const {
  return spec_.duration_s > 0.0 && elapsed_s_ >= spec_.duration_s;
}

double Webservice::offered_rps(sim::SimTime now) const {
  double w = 1.0;
  if (workload_.has_value()) {
    w = std::clamp(workload_->normalized_at(now), 0.0, 1.0);
  }
  double floor = spec_.min_rps_fraction;
  return spec_.peak_rps * (floor + (1.0 - floor) * w);
}

double Webservice::cpu_per_request() const {
  switch (spec_.mix) {
    case WorkloadMix::CpuIntensive:
      return 0.0085;  // heavy aggregation/statistics per request
    case WorkloadMix::MemIntensive:
      return 0.0018;  // mostly a cache fetch
    case WorkloadMix::Mixed:
      return 0.0040;
  }
  return 0.0040;
}

std::size_t Webservice::cache_entries() const {
  switch (spec_.mix) {
    case WorkloadMix::CpuIntensive:
      return 30000;  // ~300 MB: small hot set, compute-dominated
    case WorkloadMix::MemIntensive:
      return 180000;  // ~1.8 GB: nearly the whole dataset resident
    case WorkloadMix::Mixed:
      return 100000;  // ~1 GB
  }
  return 100000;
}

double Webservice::membw_per_request_mb() const {
  switch (spec_.mix) {
    case WorkloadMix::CpuIntensive:
      return 2.0;  // scans rows while aggregating
    case WorkloadMix::MemIntensive:
      return 6.0;  // large object copies
    case WorkloadMix::Mixed:
      return 4.0;
  }
  return 4.0;
}

sim::ResourceDemand Webservice::demand(sim::SimTime now) {
  double rps = offered_rps(now);
  sim::ResourceDemand d;
  d.cpu_cores = rps * cpu_per_request();
  // The *active* working set scales with load: at low request rates only
  // the hot head of the cache is touched, so cold pages can be evicted
  // (or swapped) without hurting response times. These are the
  // low-intensity valleys Stay-Away exploits to run memory-hungry batch
  // neighbours (§1, Fig. 13).
  double load_fraction = rps / spec_.peak_rps;
  double cache_mb = static_cast<double>(cache_.capacity()) * spec_.object_mb;
  d.memory_mb =
      spec_.base_memory_mb + cache_mb * (0.3 + 0.7 * load_fraction);
  d.membw_mbps = rps * membw_per_request_mb() * 0.1;
  d.disk_mbps = rps * last_miss_rate_ * spec_.object_mb;
  d.net_mbps = rps * spec_.object_mb * 8.0 * 0.1;  // responses on the wire
  return d;
}

void Webservice::advance(sim::SimTime now, double dt,
                         const sim::Allocation& alloc) {
  // Replay a sample of the tick's key accesses against the real cache to
  // measure the miss rate that shapes next tick's disk demand. The keys
  // are drawn first, in RNG order, then replayed in that order.
  std::uint64_t before_h = cache_.hits();
  std::uint64_t before_m = cache_.misses();
  keys_.sample(rng_, draws_);
  cache_.replay(draws_);
  std::uint64_t dh = cache_.hits() - before_h;
  std::uint64_t dm = cache_.misses() - before_m;
  last_miss_rate_ = (dh + dm > 0)
                        ? static_cast<double>(dm) / static_cast<double>(dh + dm)
                        : 0.0;

  double offered = offered_rps(now);
  completed_tps_ = offered * alloc.progress;
  double ratio = (offered > 0.0) ? completed_tps_ / offered : 1.0;
  smoothed_ratio_ += spec_.smoothing * (ratio - smoothed_ratio_);
  latch_.update(smoothed_ratio_, spec_.qos_threshold);
  elapsed_s_ += dt;
}

}  // namespace stayaway::apps
