#include "sim/contention.hpp"

#include <algorithm>
#include <vector>

#include "util/check.hpp"

namespace stayaway::sim {

namespace {

/// Max-min fair (water-filling) share of a rate resource, the behaviour of
/// CFS and of fair I/O and network schedulers: a VM demanding less than
/// its fair share receives its full demand; the remainder is split among
/// the still-hungry VMs round by round. Grants accumulate in place in
/// out[i].granted.*field. A VM is satisfied when it demands nothing or has
/// been granted its whole demand: a hungry VM holds exactly 0 until the
/// final even split, and a filled one exactly its demand (0 + want), so
/// the grant itself carries the flag and the rounds need no scratch.
void share_rate_fair(double capacity, double ResourceDemand::*field,
                     const std::vector<ResourceDemand>& demands,
                     std::vector<Allocation>& out) {
  const std::size_t n = demands.size();
  double total = 0.0;
  for (const auto& d : demands) total += d.*field;
  if (total <= capacity) {
    for (std::size_t i = 0; i < n; ++i) out[i].granted.*field = demands[i].*field;
    return;
  }

  auto satisfied = [&](std::size_t i) {
    const double demand = demands[i].*field;
    return !(demand > 0.0) || out[i].granted.*field == demand;
  };
  double remaining = capacity;
  std::size_t hungry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i].granted.*field = 0.0;
    if (demands[i].*field > 0.0) ++hungry;
  }
  while (hungry > 0 && remaining > 1e-12) {
    double share = remaining / static_cast<double>(hungry);
    bool anyone_filled = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (satisfied(i)) continue;
      double& granted = out[i].granted.*field;
      double want = demands[i].*field - granted;
      if (want <= share) {
        granted += want;
        remaining -= want;
        --hungry;
        anyone_filled = true;
      }
    }
    if (!anyone_filled) {
      // Everyone still hungry wants at least the fair share: split evenly.
      for (std::size_t i = 0; i < n; ++i) {
        if (!satisfied(i)) out[i].granted.*field += share;
      }
      remaining = 0.0;
    }
  }
}

double progress_of(double granted, double demanded) {
  if (demanded <= 0.0) return 1.0;
  return std::clamp(granted / demanded, 0.0, 1.0);
}

}  // namespace

void resolve_contention(const HostSpec& host,
                        const std::vector<ResourceDemand>& demands,
                        std::vector<Allocation>& out) {
  SA_REQUIRE(host.cpu_cores > 0.0 && host.memory_mb > 0.0,
             "host must have CPU and memory");
  out.assign(demands.size(), Allocation{});
  if (demands.empty()) return;

  share_rate_fair(host.cpu_cores, &ResourceDemand::cpu_cores, demands, out);
  share_rate_fair(host.membw_mbps, &ResourceDemand::membw_mbps, demands, out);
  share_rate_fair(host.disk_mbps, &ResourceDemand::disk_mbps, demands, out);
  share_rate_fair(host.net_mbps, &ResourceDemand::net_mbps, demands, out);

  // Memory capacity: overflow beyond physical memory is swapped out,
  // distributed across VMs proportionally to working-set size (an LRU
  // approximation: the bigger the footprint, the more pages age out).
  double total_ws = 0.0;
  for (const auto& d : demands) total_ws += d.memory_mb;
  double overflow = std::max(0.0, total_ws - host.memory_mb);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    double ws = demands[i].memory_mb;
    if (ws > 0.0 && overflow > 0.0 && total_ws > 0.0) {
      double swapped = overflow * (ws / total_ws);
      out[i].swapped_fraction = std::clamp(swapped / ws, 0.0, 1.0);
    }
    out[i].granted.memory_mb = ws * (1.0 - out[i].swapped_fraction);
    // A VM actively touching a partially swapped-out working set streams
    // pages through the disk. The response is steep: missing even a few
    // percent of a multi-GB working set faults continuously, so page
    // traffic approaches disk saturation quickly.
    out[i].swap_io_mbps =
        std::min(4.0 * out[i].swapped_fraction, 1.0) * host.disk_mbps;
  }

  // Co-run friction: CPU oversubscription degrades everyone beyond the
  // pure time-slicing loss (cache pollution, context switches).
  double total_cpu = 0.0;
  for (const auto& d : demands) total_cpu += d.cpu_cores;
  double excess = std::max(0.0, total_cpu / host.cpu_cores - 1.0);
  double efficiency = 1.0 / (1.0 + host.contention_friction * excess);

  for (std::size_t i = 0; i < demands.size(); ++i) {
    const auto& d = demands[i];
    auto& a = out[i];
    double p = progress_of(a.granted.cpu_cores, d.cpu_cores);
    p = std::min(p, progress_of(a.granted.membw_mbps, d.membw_mbps));
    p = std::min(p, progress_of(a.granted.disk_mbps, d.disk_mbps));
    p = std::min(p, progress_of(a.granted.net_mbps, d.net_mbps));
    if (d.cpu_cores > 0.0) p *= efficiency;
    p /= 1.0 + host.swap_penalty * a.swapped_fraction;
    a.progress = std::clamp(p, 0.0, 1.0);
  }
}

}  // namespace stayaway::sim
