// Multi-threaded stress tests, written to run under ThreadSanitizer
// (./ci.sh --tsan) as well as in the plain tier-1 suite. They hammer the
// concurrent surfaces of the library: the fleet's worker pool (worker
// hand-off at every size), the obs metrics registry (relaxed-atomic
// updates racing registration and snapshots), and the fleet runner (full
// host pipelines publishing into one shared observer from a worker
// pool).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/fleet.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "util/thread_pool.hpp"

namespace stayaway {
namespace {

TEST(ThreadPoolStress, ForRangesCoversEveryIndexAtEverySize) {
  constexpr std::size_t kN = 10'000;
  for (std::size_t threads = 1; threads <= 8; ++threads) {
    util::ThreadPool pool(threads);
    std::vector<std::uint64_t> out(kN, 0);
    for (int round = 0; round < 20; ++round) {
      pool.for_ranges(kN, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) out[i] += i;
      });
    }
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(out[i], 20 * i) << "index " << i << " at " << threads
                                << " threads";
    }
  }
}

TEST(ThreadPoolStress, InParallelIsVisibleDuringASection) {
  util::ThreadPool pool(4);
  EXPECT_FALSE(pool.in_parallel());
  std::atomic<bool> release{false};
  std::atomic<bool> observed{false};
  std::thread observer([&] {
    while (!pool.in_parallel()) std::this_thread::yield();
    observed.store(true);
    release.store(true);
  });
  pool.for_ranges(64, [&](std::size_t, std::size_t) {
    while (!release.load()) std::this_thread::yield();
  });
  observer.join();
  EXPECT_TRUE(observed.load());
  EXPECT_FALSE(pool.in_parallel());
}

// DESIGN.md §13: eight full host pipelines — map, predict, act, degraded
// -mode bookkeeping and observability publish — driven 200 periods each
// on a 4-worker fleet pool, all publishing into one shared observer.
// Concurrency must be invisible in the results: every host's record
// stream matches a serial run of the same fleet, host by host.
TEST(FleetConcurrency, EightPipelinesOnFourWorkersMatchSerialRun) {
  harness::ExperimentSpec base;
  base.sensitive = harness::SensitiveKind::VlcStream;
  base.batch = harness::BatchKind::TwitterAnalysis;
  base.policy = harness::PolicyKind::StayAway;
  base.duration_s = 200.0;  // period_s = 1.0 -> 200 periods per host
  base.sensitive_start_s = 2.0;
  base.batch_start_s = 10.0;

  constexpr std::size_t kHosts = 8;
  harness::FleetResult serial =
      harness::run_fleet(harness::replicate_fleet(base, kHosts, 321, 1));

  std::ostringstream events;
  obs::JsonlSink sink(events);
  obs::Observer observer(&sink);
  harness::FleetSpec spec = harness::replicate_fleet(base, kHosts, 321, 4);
  spec.observer = &observer;
  harness::FleetResult parallel = harness::run_fleet(spec);

  ASSERT_EQ(serial.hosts.size(), kHosts);
  ASSERT_EQ(parallel.hosts.size(), kHosts);
  for (std::size_t i = 0; i < kHosts; ++i) {
    EXPECT_EQ(parallel.hosts[i].name, serial.hosts[i].name);
    const harness::ExperimentResult& p = parallel.hosts[i].result;
    const harness::ExperimentResult& s = serial.hosts[i].result;
    EXPECT_TRUE(p.stayaway_records == s.stayaway_records)
        << "record stream diverged on host " << parallel.hosts[i].name;
    EXPECT_EQ(p.qos, s.qos);
    EXPECT_EQ(p.utilization, s.utilization);
    EXPECT_EQ(p.violation_periods, s.violation_periods);
    EXPECT_EQ(p.pauses, s.pauses);
    EXPECT_EQ(p.resumes, s.resumes);
    EXPECT_EQ(p.final_beta, s.final_beta);
  }
  // The shared observer saw every host's full run, under its own name.
  for (std::size_t i = 0; i < kHosts; ++i) {
    EXPECT_EQ(observer.metrics()
                  .counter("host.host" + std::to_string(i) + ".loop.periods")
                  .value(),
              200u);
  }
  EXPECT_GT(sink.emitted(), kHosts * 200);
}

// DESIGN.md §15: each ring source generates inline on the worker that
// drains it, so 8 ring-fed pipelines on a 4-worker fleet pool share no
// ingest state across threads. Worker scheduling must stay invisible: the
// parallel fleet's record streams (ingest telemetry included) must match
// a serial run of the identical fleet. Runs under TSan via
// `ci.sh --ingest`.
TEST(IngestConcurrency, RingFedFleetMatchesSerialRun) {
  harness::ExperimentSpec base;
  base.sensitive = harness::SensitiveKind::VlcStream;
  base.batch = harness::BatchKind::TwitterAnalysis;
  base.policy = harness::PolicyKind::StayAway;
  base.duration_s = 120.0;
  base.stayaway.embed_method = core::EmbedMethod::LandmarkIncremental;
  base.stayaway.ingest.source = core::IngestSource::Ring;
  base.stayaway.ingest.rate_hz = 16.0;
  base.stayaway.ingest.ring_capacity = 64;

  constexpr std::size_t kHosts = 8;
  harness::FleetResult serial =
      harness::run_fleet(harness::replicate_fleet(base, kHosts, 77, 1));
  harness::FleetResult parallel =
      harness::run_fleet(harness::replicate_fleet(base, kHosts, 77, 4));

  ASSERT_EQ(serial.hosts.size(), kHosts);
  ASSERT_EQ(parallel.hosts.size(), kHosts);
  std::size_t ingested = 0;
  for (std::size_t i = 0; i < kHosts; ++i) {
    const harness::ExperimentResult& p = parallel.hosts[i].result;
    const harness::ExperimentResult& s = serial.hosts[i].result;
    EXPECT_TRUE(p.stayaway_records == s.stayaway_records)
        << "ring-fed record stream diverged on host "
        << parallel.hosts[i].name;
    for (const auto& rec : p.stayaway_records) ingested += rec.samples_ingested;
  }
  // The streams actually streamed: ~16 samples per period per host.
  EXPECT_GT(ingested, kHosts * 100u);
}

TEST(ConcurrentObs, CountersGaugesHistogramsUnderContention) {
  obs::MetricsRegistry reg;
  obs::Counter shared_counter = reg.counter("stress.ops");
  obs::Histogram shared_hist =
      reg.histogram("stress.latency", obs::exponential_bounds(0.001, 10.0, 8));

  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kOps = 20'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, shared_counter, shared_hist, t]() mutable {
      // Each worker also races get-or-create on a shared name and
      // registers a private name of its own.
      obs::Counter racing = reg.counter("stress.shared");
      obs::Counter mine = reg.counter("stress.t" + std::to_string(t));
      obs::Gauge gauge = reg.gauge("stress.gauge");
      for (std::uint64_t i = 0; i < kOps; ++i) {
        shared_counter.inc();
        racing.inc();
        mine.inc();
        gauge.set(static_cast<double>(i));
        shared_hist.observe(0.001 * static_cast<double>(i % 100));
      }
    });
  }
  // A snapshotter races the updates: totals it sees must be monotone.
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    std::uint64_t last = 0;
    while (!stop.load()) {
      obs::MetricsSnapshot snap = reg.snapshot();
      for (const auto& [name, value] : snap.counters) {
        if (name == "stress.ops") {
          EXPECT_GE(value, last);
          last = value;
        }
      }
      std::this_thread::yield();
    }
  });
  for (auto& w : workers) w.join();
  stop.store(true);
  snapshotter.join();

  EXPECT_EQ(shared_counter.value(), kThreads * kOps);
  EXPECT_EQ(reg.counter("stress.shared").value(), kThreads * kOps);
  EXPECT_EQ(shared_hist.count(), kThreads * kOps);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter("stress.t" + std::to_string(t)).value(), kOps);
  }
  // Every bucket observation landed somewhere: bucket sums equal count.
  obs::MetricsSnapshot snap = reg.snapshot();
  for (const auto& h : snap.histograms) {
    if (h.name != "stress.latency") continue;
    std::uint64_t bucket_total = 0;
    for (std::uint64_t b : h.buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, h.count);
  }
}

// Pins the Observer span-cache locking fix (DESIGN.md §16): racing
// *first* uses of one span name must converge on a single histogram.
// Before the fix, span_histogram() held the cache lock across the
// registry's own mutex, nesting the observer's two locks on every
// first-use path; the rewrite drops the cache lock around the registry
// call, which is only correct because racing creations are get-or-create
// on the same registry cell. This test drives that exact race.
TEST(ConcurrentObs, RacingFirstSpanUsesShareOneHistogram) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kSpansPerThread = 200;
  obs::Observer observer;
  observer.set_span_events(false);

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&observer]() {
      for (std::size_t i = 0; i < kSpansPerThread; ++i) {
        obs::Span span = observer.span("phase", 0.0);
        span.close();
      }
    });
  }
  for (auto& w : workers) w.join();

  obs::MetricsSnapshot snap = observer.metrics().snapshot();
  std::size_t matching = 0;
  for (const auto& h : snap.histograms) {
    if (h.name != "span.phase.us") continue;
    ++matching;
    // Every close landed in the one shared cell, whichever creation won.
    EXPECT_EQ(h.count, kThreads * kSpansPerThread);
  }
  EXPECT_EQ(matching, 1u);
}

}  // namespace
}  // namespace stayaway
