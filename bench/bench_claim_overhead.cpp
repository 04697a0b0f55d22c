// Reproduces the §4 overhead claims with google-benchmark micro timings:
//
//  * SMACOF cost grows quadratically with the sample count, and the
//    representative-set reduction keeps the observation matrix small —
//    compare a full-resolution stream against its deduplicated form.
//  * Landmark MDS and warm-started incremental updates are the cheap
//    paths the paper points to ([32, 35]).
//  * The full Stay-Away control period costs ~2% of a 1-second period.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "apps/cpubomb.hpp"
#include "apps/vlc_stream.hpp"
#include "core/pipeline.hpp"
#include "harness/scenarios.hpp"
#include "mds/distance.hpp"
#include "mds/incremental.hpp"
#include "mds/landmark.hpp"
#include "mds/smacof.hpp"
#include "monitor/representative.hpp"
#include "util/rng.hpp"

namespace {

using namespace stayaway;

std::vector<std::vector<double>> noisy_stream(std::size_t n, std::size_t dim,
                                              std::size_t clusters,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t c = i % clusters;
    std::vector<double> v(dim, 0.0);
    for (std::size_t d = 0; d < dim; ++d) {
      v[d] = 0.1 + 0.8 * static_cast<double>((c * 7 + d) % clusters) /
                       static_cast<double>(clusters) +
             rng.normal(0.0, 0.01);
    }
    out.push_back(std::move(v));
  }
  return out;
}

/// Full SMACOF over the raw stream: the cost the paper's optimisation avoids.
void BM_SmacofRawStream(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto stream = noisy_stream(n, 8, 12, 1);
  auto delta = mds::distance_matrix(stream);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mds::smacof(delta));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SmacofRawStream)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Complexity();

/// SMACOF over the deduplicated representative set of the same stream.
void BM_SmacofDeduplicated(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto stream = noisy_stream(n, 8, 12, 1);
  monitor::RepresentativeSet reps(0.06);
  for (const auto& v : stream) reps.assign(v);
  auto delta = mds::distance_matrix(reps.all());
  state.counters["representatives"] = static_cast<double>(reps.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(mds::smacof(delta));
  }
}
BENCHMARK(BM_SmacofDeduplicated)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

/// Landmark MDS over the raw stream (§4's cited fast alternative).
void BM_LandmarkMds(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto stream = noisy_stream(n, 8, 12, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mds::landmark_embed(stream, 16));
  }
}
BENCHMARK(BM_LandmarkMds)->Arg(64)->Arg(256);

/// Incremental placement of one new point against an existing map.
void BM_IncrementalPlacement(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  auto stream = noisy_stream(n, 8, 12, 1);
  auto result = mds::smacof(mds::distance_matrix(stream));
  std::vector<double> probe = stream.front();
  probe[0] += 0.05;
  std::vector<double> dists;
  for (const auto& v : stream) {
    dists.push_back(linalg::euclidean_distance(v, probe));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mds::place_point(result.points, dists));
  }
}
BENCHMARK(BM_IncrementalPlacement)->Arg(64)->Arg(256);

/// One full Stay-Away control period (sample -> map -> predict -> act)
/// against a live co-location, after a warm-up that builds the map.
void BM_FullControlPeriod(benchmark::State& state) {
  sim::SimHost host(harness::paper_host(), 0.1);
  auto vlc = std::make_unique<apps::VlcStream>();
  const sim::QosProbe* probe = vlc.get();
  host.add_vm("vlc", sim::VmKind::Sensitive, std::move(vlc));
  host.add_vm("bomb", sim::VmKind::Batch, std::make_unique<apps::CpuBomb>(),
              3.0);
  core::StayAwayConfig cfg;
  core::HostPipeline pipeline(host, *probe, cfg);
  for (int p = 0; p < 60; ++p) {  // warm-up: learn the map
    host.run(10);
    pipeline.on_period();
  }
  for (auto _ : state) {
    state.PauseTiming();  // advancing the simulated host is not controller cost
    host.run(10);
    state.ResumeTiming();
    pipeline.on_period();
  }
  // The paper reports ~2% CPU: controller wall time per 1 s control
  // period. With T = measured ns/iteration, overhead% = T / 1e9 * 100.
  state.counters["controller_reps"] =
      static_cast<double>(
          pipeline.stay_away_mapper()->representatives().size());
}
BENCHMARK(BM_FullControlPeriod)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
