// Fleet throughput benchmark: aggregate control periods per second as a
// homogeneous fleet scales from 1 to 8 hosts on a 4-worker
// core::FleetController pool (DESIGN.md §13).
//
// Each host runs the full Stay-Away loop (map -> predict -> act) against
// its own simulated host with a decorrelated seed. Aggregate periods/s =
// (hosts x periods per host) / wall-clock.
//
// The 1 -> 8 host speedup is a recorded number, not a gate: at 60
// periods per host the whole run lasts well under a millisecond, so
// thread start-up dominates and the ratio swings between runs (2.15x,
// 1.44x, 2.52x and 1.47x on a 4-thread machine, against an ideal 4x).
//
// When STAYAWAY_BENCH_JSON_DIR is set a BENCH_fleet.json perf record of
// the per-size rates is written there.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "harness/fleet.hpp"
#include "obs/metrics.hpp"
#include "util/strings.hpp"

namespace stayaway::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kWorkers = 4;
constexpr int kReps = 3;

harness::ExperimentSpec base_spec() {
  harness::ExperimentSpec spec;
  spec.sensitive = harness::SensitiveKind::VlcStream;
  spec.batch = harness::BatchKind::CpuBomb;
  spec.policy = harness::PolicyKind::StayAway;
  spec.duration_s = 60.0;
  spec.sensitive_start_s = 2.0;
  spec.batch_start_s = 10.0;
  return spec;
}

/// Best-of-kReps aggregate periods/s for a fleet of `hosts` hosts.
double measure_rate(const harness::ExperimentSpec& base, std::size_t hosts) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    harness::FleetSpec fleet =
        harness::replicate_fleet(base, hosts, 1234, kWorkers);
    auto start = Clock::now();
    harness::run_fleet(fleet);
    double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    double periods =
        static_cast<double>(hosts) * base.duration_s / base.period_s;
    best = std::max(best, periods / elapsed);
  }
  return best;
}

}  // namespace
}  // namespace stayaway::bench

int main() {
  using namespace stayaway;
  using namespace stayaway::bench;

  const unsigned hw = std::thread::hardware_concurrency();
  harness::ExperimentSpec base = base_spec();

  std::cout << "=== bench_fleet: aggregate periods/s, " << kWorkers
            << "-worker fleet pool ===\n";
  std::cout << "per host: " << base.duration_s / base.period_s
            << " periods of the full stay-away loop; hardware threads: "
            << hw << "\n\n";

  measure_rate(base, 1);  // warm-up (allocators, code paths), untimed

  const std::vector<std::size_t> sizes{1, 2, 4, 8};
  std::vector<double> rates;
  for (std::size_t hosts : sizes) {
    rates.push_back(measure_rate(base, hosts));
  }

  std::cout << "hosts,workers,periods_per_s,speedup_vs_1\n";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::cout << sizes[i] << "," << kWorkers << ","
              << format_double(rates[i], 1) << ","
              << format_double(rates[i] / rates[0], 2) << "\n";
  }

  double speedup = rates.back() / rates.front();
  std::cout << "\naggregate speedup 1 -> 8 hosts: "
            << format_double(speedup, 2) << "x (recorded, not gated)\n";

  obs::MetricsRegistry record;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    record.gauge("fleet.hosts" + std::to_string(sizes[i]) + ".periods_per_s")
        .set(rates[i]);
  }
  record.gauge("fleet.speedup_1_to_8").set(speedup);
  if (obs::write_bench_record("fleet", record)) {
    std::cout << "BENCH_fleet.json written\n";
  }
  return 0;
}
