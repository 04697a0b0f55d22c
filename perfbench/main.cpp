// perfbench — one process of the end-to-end benchmark (run.py drives two
// of them per measurement and composes the result).
//
//   perfbench --workload W --seed N --mode e2e --seconds S [--smoke]
//       Untraced: repeats harness::run_fleet (no observer, no recorder)
//       for S seconds, timing fleet set-ups between repetitions; every
//       repetition must reproduce the first one's records bit for bit.
//   perfbench --workload W --seed N --mode traced [--smoke]
//       Traced runs (traced.hpp) with per-layer timings, alternating
//       with untraced ones to measure the tracing overhead.
//
// Both print `digest <host> <hash,...>` lines (one fnv1a64 per period
// record), an `outcome ...` line, and a final JSON object with the
// process's metrics; e2e also prints every repetition's wall time
// (`walls ...`) and set-up time (`setups ...`).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  Workload workload = Workload::WsDiurnal;
  std::uint64_t seed = 0;
  std::string mode;
  double seconds = 10.0;
  bool smoke = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--workload") {
      const char* v = value();
      if (v == nullptr) return false;
      auto w = parse_workload(v);
      if (!w.has_value()) return false;
      args.workload = *w;
      have_workload = true;
    } else if (a == "--seed") {
      const char* v = value();
      if (v == nullptr) return false;
      char* end = nullptr;
      args.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
      have_seed = true;
    } else if (a == "--mode") {
      const char* v = value();
      if (v == nullptr) return false;
      args.mode = v;
    } else if (a == "--seconds") {
      const char* v = value();
      if (v == nullptr) return false;
      char* end = nullptr;
      args.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && (args.mode == "e2e" || args.mode == "traced");
}

/// Record digests are costly (every record is formatted), so only the
/// reference run, which run.py compares against the traced run, has them.
Outcome outcome_of(const harness::FleetResult& result, bool digests) {
  Outcome o;
  ExactCounts& x = o.exact;
  for (const harness::FleetHostResult& h : result.hosts) {
    o.hosts.push_back(h.name);
    o.counts.push_back(h.result.stayaway_records.size());
    if (digests) {
      std::vector<std::uint64_t> hashes;
      for (const core::PeriodRecord& rec : h.result.stayaway_records) {
        hashes.push_back(record_hash(rec));
      }
      o.records.push_back(std::move(hashes));
    }
    o.periods += h.result.qos.size();
    o.violation_periods += h.result.violation_periods;
    o.batch_core_s += h.result.batch_cpu_work;
    x.recoveries += h.recovery.recoveries;
    x.gap_periods_replayed += h.recovery.gap_periods_replayed;
    x.divergences += h.recovery.divergences;
    x.pauses += h.result.pauses;
    x.resumes += h.result.resumes;
    x.representatives_max =
        std::max(x.representatives_max, h.result.representative_count);
    x.predictions += h.result.tally.total();
    x.predictions_correct +=
        h.result.tally.true_positive + h.result.tally.true_negative;
  }
  if (result.cluster.has_value()) {
    o.events = events_hash(result.cluster->events);
    x.migrations = result.cluster->migrations;
    x.admitted = result.cluster->admitted;
    x.rejected = result.cluster->rejected;
  }
  return o;
}

/// The per-layer exact counts, as run_fleet reports them.
std::vector<Metric> exact_metrics(const Outcome& o) {
  const ExactCounts& x = o.exact;
  auto count = [](const char* name, std::size_t n) {
    return Metric{name, static_cast<double>(n), "count", 0};
  };
  return {
      count("mds.representatives.max", x.representatives_max),
      {"core.predict.accuracy",
       x.predictions > 0 ? static_cast<double>(x.predictions_correct) /
                               static_cast<double>(x.predictions)
                         : 0.0,
       "fraction", x.predictions},
      count("core.pauses", x.pauses),
      count("core.resumes", x.resumes),
      count("cluster.migrations", x.migrations),
      count("cluster.admitted", x.admitted),
      count("cluster.rejected", x.rejected),
      count("supervisor.recoveries", x.recoveries),
      count("supervisor.gap_periods_replayed", x.gap_periods_replayed),
      count("supervisor.divergences", x.divergences),
  };
}

/// Host-periods of `got` that are missing, diverged under the
/// supervisor, or (when both carry digests) differ from `ref`. A
/// fleet-wide mismatch (violations, batch work, coordinator events, exact
/// counts) fails every host-period.
std::size_t failed_host_periods(const Outcome& ref, const Outcome& got,
                                std::size_t periods) {
  const std::size_t all = ref.hosts.size() * periods;
  if (got.hosts != ref.hosts || got.violation_periods != ref.violation_periods ||
      got.batch_core_s != ref.batch_core_s || got.events != ref.events ||
      got.exact != ref.exact) {
    return all;
  }
  std::size_t failed = got.exact.divergences;
  for (std::size_t i = 0; i < ref.hosts.size(); ++i) {
    for (std::size_t p = 0; p < periods; ++p) {
      bool ok = p < ref.counts[i] && p < got.counts[i];
      if (ok && !ref.records.empty() && !got.records.empty()) {
        ok = ref.records[i][p] == got.records[i][p];
      }
      if (!ok) ++failed;
    }
  }
  return std::min(failed, all);
}

void print_outcome(const Outcome& o) {
  for (std::size_t i = 0; i < o.hosts.size(); ++i) {
    std::printf("digest %s ", o.hosts[i].c_str());
    for (std::size_t p = 0; p < o.records[i].size(); ++p) {
      std::printf(p == 0 ? "%016" PRIx64 : ",%016" PRIx64, o.records[i][p]);
    }
    std::printf("\n");
  }
  const ExactCounts& x = o.exact;
  std::printf(
      "outcome periods=%zu violation_periods=%zu batch_core_s=%.17g "
      "events=%016" PRIx64
      " recoveries=%zu gap_periods_replayed=%zu divergences=%zu "
      "migrations=%zu admitted=%zu rejected=%zu pauses=%zu resumes=%zu "
      "representatives_max=%zu predictions=%zu predictions_correct=%zu\n",
      o.periods, o.violation_periods, o.batch_core_s, o.events, x.recoveries,
      x.gap_periods_replayed, x.divergences, x.migrations, x.admitted,
      x.rejected, x.pauses, x.resumes, x.representatives_max, x.predictions,
      x.predictions_correct);
}

void print_result(std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics,
                  const std::vector<std::pair<std::string, double>>& extra) {
  std::printf("{\"attempted\": %zu, \"failed\": %zu", attempted, failed);
  for (const auto& [key, value] : extra) {
    std::printf(", \"%s\": %.17g", key.c_str(), value);
  }
  std::printf(", \"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"samples\": %zu}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  std::printf("}}\n");
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run_e2e(const Args& args) {
  // Set-up: the trace and FleetSpec, then each host's rig and pipeline —
  // the construction run_fleet repeats before its first period. One
  // sample is the mean of a batch of set-ups lasting at least
  // kSetupBatchS (some fleets set up in under 0.1 ms). The samples are
  // taken kSetupPerRep after each repetition, so they see the machine
  // conditions the repetitions see, and topped up to min_setup_samples.
  constexpr double kSetupBatchS = 0.05;
  constexpr int kSetupPerRep = 2;
  const std::size_t min_setup_samples = args.smoke ? 2 : 21;
  auto set_up = [&args] {
    harness::FleetSpec spec = make_fleet(args.workload, args.seed, args.smoke);
    std::vector<harness::HostRig> rigs(spec.hosts.size());
    std::vector<std::unique_ptr<core::HostPipeline>> pipelines;
    for (std::size_t i = 0; i < spec.hosts.size(); ++i) {
      rigs[i] = harness::build_host_rig(spec.hosts[i].experiment,
                                        twins_for_host(spec, i));
      pipelines.push_back(make_pipeline(spec, i, rigs[i]));
    }
  };
  std::vector<double> setup_s;
  auto sample_setup = [&setup_s, &set_up] {
    auto t0 = Clock::now();
    int n = 0;
    do {
      set_up();
      ++n;
    } while (seconds_since(t0) < kSetupBatchS);
    setup_s.push_back(seconds_since(t0) / n);
  };
  set_up();  // untimed: warms the allocator

  const harness::FleetSpec fleet =
      make_fleet(args.workload, args.seed, args.smoke);
  const std::size_t periods = periods_per_host(fleet);
  const std::size_t host_periods = fleet.hosts.size() * periods;

  // The first run is the reference every later run must reproduce, and
  // the one whose peak RSS is reported: later runs only add allocator
  // noise (per-thread arenas) to the high-water mark. It also fills the
  // allocator, so it is not timed.
  std::size_t attempted = host_periods;
  std::size_t failed = 0;
  Outcome reference;
  try {
    reference = outcome_of(harness::run_fleet(fleet), true);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run_fleet threw: %s\n", e.what());
    return 1;
  }
  // Missing records and supervisor divergences; run.py checks the
  // reference against the traced run.
  failed += failed_host_periods(reference, reference, periods);
  const double rss_mb = peak_rss_mb();

  const int min_reps = args.smoke ? 1 : 3;
  std::vector<double> wall_s;
  auto start = Clock::now();
  for (int rep = 0; rep < min_reps || seconds_since(start) < args.seconds;
       ++rep) {
    attempted += host_periods;
    try {
      auto t0 = Clock::now();
      harness::FleetResult result = harness::run_fleet(fleet);
      wall_s.push_back(seconds_since(t0));
      failed +=
          failed_host_periods(reference, outcome_of(result, false), periods);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: run_fleet threw: %s\n", e.what());
      failed += host_periods;
    }
    for (int k = 0; k < kSetupPerRep; ++k) sample_setup();
  }
  while (setup_s.size() < min_setup_samples) sample_setup();
  if (wall_s.empty()) return 1;

  print_outcome(reference);
  std::printf("walls");
  for (double w : wall_s) std::printf(" %.6f", w);
  std::printf("\nsetups");
  for (double s : setup_s) std::printf(" %.9f", s);
  std::printf("\n");
  const double wall = percentile(wall_s, 0.5);
  std::vector<Metric> metrics{
      {"periods_per_s", static_cast<double>(host_periods) / wall, "1/s",
       wall_s.size()},
      {"setup_s", percentile(setup_s, 0.5), "s", setup_s.size()},
      {"peak_rss_mb", rss_mb, "MB", 0},
      {"violation_frac",
       static_cast<double>(reference.violation_periods) /
           static_cast<double>(reference.periods),
       "fraction", 0},
      {"batch_core_s", reference.batch_core_s, "core-s", 0},
  };
  print_result(attempted, failed, metrics,
               {{"wall_s", wall},
                {"workers", static_cast<double>(effective_workers(fleet))},
                {"hosts", static_cast<double>(fleet.hosts.size())},
                {"periods_per_host", static_cast<double>(periods)}});
  return 0;
}

int run_traced_mode(const Args& args) {
  const harness::FleetSpec fleet =
      make_fleet(args.workload, args.seed, args.smoke);
  const std::size_t periods = periods_per_host(fleet);
  const std::size_t host_periods = fleet.hosts.size() * periods;
  // An untraced and a traced run back to back, so the tracing overhead is
  // measured under the same machine conditions, after an untimed untraced
  // run that fills the allocator.
  std::vector<Outcome> outcomes;
  double untraced_s = 0.0;
  TracedRun run;
  try {
    for (int k = 0; k < (args.smoke ? 1 : 2); ++k) {
      auto t0 = Clock::now();
      harness::FleetResult result = harness::run_fleet(fleet);
      untraced_s = seconds_since(t0);
      outcomes.push_back(outcome_of(result, false));
    }
    run = run_traced(fleet);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: traced process threw: %s\n", e.what());
    return 1;
  }
  // Every run of the process must reproduce the reported traced run.
  std::size_t failed = failed_host_periods(run.outcome, run.outcome, periods);
  for (const Outcome& o : outcomes) {
    failed += failed_host_periods(run.outcome, o, periods);
  }
  // The exact counts published are the program's; the traced run's
  // copies were checked against them above.
  std::vector<Metric> metrics = run.metrics;
  std::vector<Metric> exact = exact_metrics(outcomes.front());
  metrics.insert(metrics.end(), exact.begin(), exact.end());
  print_outcome(run.outcome);
  print_result((outcomes.size() + 1) * host_periods, failed, metrics,
               {{"wall_s", run.wall_s},
                {"untraced_wall_s", untraced_s},
                {"critical_s", run.critical_s},
                {"busy_s", run.busy_s},
                {"workers", static_cast<double>(run.workers)}});
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload ws-diurnal|vlc-fleet|"
                 "cluster-recovery --seed N --mode e2e|traced "
                 "[--seconds S] [--smoke]\n");
    return 2;
  }
  return args.mode == "e2e" ? perfbench::run_e2e(args)
                            : perfbench::run_traced_mode(args);
}
