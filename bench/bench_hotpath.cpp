// Hot-path benchmark: per-control-period latency of the map->predict
// engine at n in {64, 256, 1024} representatives.
//
// Two engines run the identical period schedule (a growth period — one
// new representative arrives and the map is re-embedded — followed by
// steady periods that only predict):
//
//   from-scratch  The seed implementation: every growth period rebuilds
//                 the full O(n^2) dissimilarity matrix and runs both the
//                 cold and the warm SMACOF solve; every prediction query
//                 recomputes labels, nearest-safe distances and Rayleigh
//                 radii from scratch (the predictor issues 5 candidate
//                 queries + 1 tally query per period).
//   incremental   The current engine: the dissimilarity matrix grows by
//                 one row/column, the cold solve is skipped when the warm
//                 solve meets the stress bound, and violation ranges are
//                 served from the StateSpace cache.
//
// The cost of the enabled observability layer (the five span timers plus
// the counter/gauge publish the runtime executes each period) is measured
// as a direct microbenchmark of that instrumentation block and reported
// as a percentage of the incremental engine's mean period — the
// acceptance bound is <5%.
//
// Prints per-period latency per engine and the speedup versus
// from-scratch, then a CSV block. When STAYAWAY_BENCH_JSON_DIR is set a
// BENCH_hotpath.json perf record of the summary gauges is written there.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "core/embedder.hpp"
#include "core/statespace.hpp"
#include "mds/distance.hpp"
#include "mds/incremental.hpp"
#include "mds/procrustes.hpp"
#include "mds/smacof.hpp"
#include "monitor/representative.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "stats/rayleigh.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace stayaway::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kDim = 6;
constexpr std::size_t kQueriesPerPeriod = 6;  // 5 candidates + 1 tally
constexpr std::size_t kGrowthPeriods = 3;
constexpr std::size_t kSteadyPerGrowth = 4;
constexpr double kWarmSkipStress = 0.05;

std::vector<std::vector<double>> make_vectors(std::size_t n, Rng& rng) {
  // States in the normalized metric space cluster near a low-dimensional
  // manifold — that is the paper's premise for mapping to 2-D at all. Two
  // latent workload coordinates drive all kDim metrics (plus sensor
  // noise), mirroring what the monitor actually observes.
  std::vector<std::vector<double>> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    double a = rng.uniform();
    double b = rng.uniform();
    for (std::size_t d = 0; d < kDim; ++d) {
      double wa = 0.3 + 0.1 * static_cast<double>(d % 3);
      double wb = 0.8 - 0.1 * static_cast<double>(d % 4);
      out[i].push_back(wa * a + wb * b + rng.normal(0.0, 0.01));
    }
  }
  return out;
}

bool is_violation(std::size_t i) { return i % 10 == 3; }

// --- The seed implementation, reproduced verbatim as the baseline. ------

struct ScratchEngine {
  mds::Embedding positions;

  // Seed MapEmbedder::embed for SmacofWarm: full matrix rebuild, warm and
  // cold solve, Procrustes re-alignment.
  void grow(const std::vector<std::vector<double>>& vectors) {
    const std::size_t n = vectors.size();
    mds::Embedding prev = positions;
    linalg::Matrix delta = mds::distance_matrix(vectors);
    mds::SmacofResult res = mds::smacof(delta);
    if (!prev.empty()) {
      mds::SmacofOptions opts;
      mds::Embedding init = prev;
      for (std::size_t i = prev.size(); i < n; ++i) {
        std::vector<double> d(i, 0.0);
        for (std::size_t j = 0; j < i; ++j) d[j] = delta.at(i, j);
        init.push_back(mds::place_point(init, d));
      }
      opts.initial = std::move(init);
      mds::SmacofResult warm = mds::smacof(delta, opts);
      if (warm.stress < res.stress) res = std::move(warm);
    }
    positions = std::move(res.points);
    if (prev.size() >= 2) {
      mds::Embedding head(positions.begin(),
                          positions.begin() +
                              static_cast<std::ptrdiff_t>(prev.size()));
      auto align = mds::procrustes_align(
          head, prev, {.allow_reflection = true, .allow_scaling = false});
      positions = align.transform.apply(positions);
    }
  }

  // Seed StateSpace::in_violation_region: ranges recomputed per query.
  bool in_violation_region(const mds::Point2& p) const {
    double c = mds::median_coordinate_range(positions);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      if (!is_violation(i)) continue;
      double nearest = -1.0;
      for (std::size_t j = 0; j < positions.size(); ++j) {
        if (is_violation(j)) continue;
        double d = mds::distance(positions[i], positions[j]);
        if (nearest < 0.0 || d < nearest) nearest = d;
      }
      double radius =
          (nearest > 0.0) ? stats::rayleigh_radius(nearest, c) : 0.0;
      if (mds::distance(p, positions[i]) <= radius + 1e-9) return true;
    }
    return false;
  }
};

// --- The current engine (MapEmbedder + cached StateSpace). --------------

struct FastEngine {
  explicit FastEngine(double warm_skip)
      : reps(0.0), embedder(core::EmbedMethod::SmacofWarm, 24, warm_skip) {}

  monitor::RepresentativeSet reps;
  core::MapEmbedder embedder;
  core::StateSpace space;

  void add(const std::vector<double>& v) {
    reps.assign(v);
    space.add_state(is_violation(space.size()) ? core::StateLabel::Violation
                                               : core::StateLabel::Safe);
  }

  void sync() { space.sync_positions(embedder.update(reps)); }
};

struct EngineTiming {
  double growth_ms = 0.0;  // mean over growth periods
  double steady_ms = 0.0;  // mean over steady periods
  double period_ms = 0.0;  // mean over all periods
  std::size_t hits = 0;    // query hits, to keep work observable
};

template <typename GrowFn, typename QueryFn>
EngineTiming run_schedule(std::size_t n, GrowFn grow, QueryFn query) {
  Rng qrng(7);
  EngineTiming t;
  double growth_total = 0.0, steady_total = 0.0;
  std::size_t growth_count = 0, steady_count = 0;
  for (std::size_t p = 0; p < kGrowthPeriods * (1 + kSteadyPerGrowth); ++p) {
    bool growth = (p % (1 + kSteadyPerGrowth)) == 0;
    auto start = Clock::now();
    if (growth) grow();
    for (std::size_t q = 0; q < kQueriesPerPeriod; ++q) {
      mds::Point2 probe{qrng.uniform(-2.0, 2.0), qrng.uniform(-2.0, 2.0)};
      if (query(probe)) ++t.hits;
    }
    double ms = std::chrono::duration<double, std::milli>(Clock::now() - start)
                    .count();
    if (growth) {
      growth_total += ms;
      ++growth_count;
    } else {
      steady_total += ms;
      ++steady_count;
    }
  }
  (void)n;
  t.growth_ms = growth_total / static_cast<double>(growth_count);
  t.steady_ms = steady_total / static_cast<double>(steady_count);
  t.period_ms = (growth_total + steady_total) /
                static_cast<double>(growth_count + steady_count);
  return t;
}

struct Row {
  std::size_t n;
  EngineTiming scratch, fast;
  double obs_period_us = 0.0;  // per-period instrumentation cost
  double obs_overhead_pct = 0.0;
};

Row run_size(std::size_t n) {
  Rng rng(11 + n);
  auto vectors = make_vectors(n, rng);
  const std::size_t n0 = n - kGrowthPeriods;

  Row row;
  row.n = n;

  // From-scratch baseline.
  {
    ScratchEngine engine;
    std::vector<std::vector<double>> grown(vectors.begin(),
                                           vectors.begin() +
                                               static_cast<std::ptrdiff_t>(n0));
    engine.grow(grown);  // initial embedding, untimed
    std::size_t next = n0;
    row.scratch = run_schedule(
        n,
        [&] {
          grown.push_back(vectors[next++]);
          engine.grow(grown);
        },
        [&](const mds::Point2& p) { return engine.in_violation_region(p); });
  }

  // Incremental engine.
  {
    FastEngine engine(kWarmSkipStress);
    for (std::size_t i = 0; i < n0; ++i) engine.add(vectors[i]);
    engine.sync();  // initial embedding, untimed
    std::size_t next = n0;
    row.fast = run_schedule(
        n,
        [&] {
          engine.add(vectors[next++]);
          engine.sync();
        },
        [&](const mds::Point2& p) { return engine.space.in_violation_region(p); });
  }

  // Cost of enabled metrics: the exact per-period instrumentation block
  // the runtime executes when an observer is attached — the five spans
  // (period + four phases) plus the counter/gauge publish — timed
  // directly over many iterations. Comparing two separate engine runs
  // instead would drown this in SMACOF wall-clock variance: the block
  // costs about a microsecond against multi-millisecond periods.
  {
    obs::Observer observer;  // metrics only: no event sink attached
    obs::Counter periods = observer.metrics().counter("loop.periods");
    obs::Gauge stress = observer.metrics().gauge("embedder.stress");
    obs::Gauge reps_g = observer.metrics().gauge("map.representatives");
    obs::Gauge rebuilds = observer.metrics().gauge("space.cache_rebuilds");
    FastEngine engine(kWarmSkipStress);
    for (std::size_t i = 0; i < n0; ++i) engine.add(vectors[i]);
    engine.sync();
    constexpr int kIters = 20000;
    auto start = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      obs::Span period_span = observer.span("period", 0.0);
      for (const char* phase : {"sample", "embed", "predict", "act"}) {
        observer.span(phase, 0.0).close();
      }
      periods.inc();
      stress.set(engine.embedder.stress());
      reps_g.set(static_cast<double>(engine.space.size()));
      rebuilds.set(static_cast<double>(engine.space.cache_rebuilds()));
      period_span.close();
    }
    row.obs_period_us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count() /
        kIters;
    row.obs_overhead_pct =
        row.obs_period_us / (row.fast.period_ms * 1000.0) * 100.0;
  }
  return row;
}

void print_engine(const std::string& name, std::size_t n, const EngineTiming& t,
                  const EngineTiming& baseline) {
  std::cout << "  " << name << ": period " << format_double(t.period_ms, 3)
            << " ms (growth " << format_double(t.growth_ms, 3) << " ms, steady "
            << format_double(t.steady_ms, 4) << " ms)";
  if (&t != &baseline) {
    std::cout << "  -> " << format_double(baseline.period_ms / t.period_ms, 1)
              << "x vs from-scratch";
  }
  std::cout << "\n";
  (void)n;
}

}  // namespace
}  // namespace stayaway::bench

int main() {
  using namespace stayaway;
  using namespace stayaway::bench;

  std::cout << "=== bench_hotpath: per-period map->predict latency ===\n";
  std::cout << "schedule per size: " << kGrowthPeriods
            << " growth periods (new representative, re-embed), "
            << kGrowthPeriods * kSteadyPerGrowth
            << " steady periods; " << kQueriesPerPeriod
            << " region queries per period\n\n";

  std::vector<Row> rows;
  for (std::size_t n : {std::size_t{64}, std::size_t{256}, std::size_t{1024}}) {
    Row row = run_size(n);
    std::cout << "n = " << n << " representatives (hits: scratch "
              << row.scratch.hits << ", incremental " << row.fast.hits
              << ")\n";
    print_engine("from-scratch", n, row.scratch, row.scratch);
    print_engine("incremental ", n, row.fast, row.scratch);
    std::cout << "  enabled-metrics cost: "
              << format_double(row.obs_period_us, 3) << " us/period = "
              << format_double(row.obs_overhead_pct, 3)
              << "% of the mean period (bound: <5%)\n\n";
    rows.push_back(row);
  }

  std::cout << "CSV:\n";
  std::cout << "n,scratch_period_ms,scratch_growth_ms,scratch_steady_ms,"
               "incr_period_ms,incr_growth_ms,incr_steady_ms,"
               "speedup_incr,obs_period_us,"
               "obs_overhead_pct\n";
  for (const auto& r : rows) {
    std::cout << r.n << "," << format_double(r.scratch.period_ms, 3) << ","
              << format_double(r.scratch.growth_ms, 3) << ","
              << format_double(r.scratch.steady_ms, 4) << ","
              << format_double(r.fast.period_ms, 3) << ","
              << format_double(r.fast.growth_ms, 3) << ","
              << format_double(r.fast.steady_ms, 4) << ","
              << format_double(r.scratch.period_ms / r.fast.period_ms, 1)
              << ","
              << format_double(r.obs_period_us, 3) << ","
              << format_double(r.obs_overhead_pct, 3)
              << "\n";
  }

  // Machine-readable perf record, gated on STAYAWAY_BENCH_JSON_DIR.
  obs::MetricsRegistry record;
  for (const auto& r : rows) {
    std::string p = "hotpath.n" + std::to_string(r.n) + ".";
    record.gauge(p + "scratch_period_ms").set(r.scratch.period_ms);
    record.gauge(p + "incr_period_ms").set(r.fast.period_ms);
    record.gauge(p + "obs_period_us").set(r.obs_period_us);
    record.gauge(p + "obs_overhead_pct").set(r.obs_overhead_pct);
    record.gauge(p + "speedup_incr")
        .set(r.scratch.period_ms / r.fast.period_ms);
  }
  if (obs::write_bench_record("hotpath", record)) {
    std::cout << "\nBENCH_hotpath.json written\n";
  }
  return 0;
}
