// Multi-threaded stress tests, written to run under ThreadSanitizer
// (./ci.sh --tsan) as well as in the plain tier-1 suite. They hammer the
// concurrent surfaces of the library: the obs metrics registry
// (relaxed-atomic updates racing registration and snapshots) and the
// fleet runner (full host pipelines publishing into one shared observer
// from a worker team, independently or coordinated period by period).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/webservice.hpp"
#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "harness/fleet.hpp"
#include "harness/scenario_file.hpp"
#include "harness/scenarios.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "replay/recorder.hpp"
#include "replay/replay.hpp"
#include "sim/host.hpp"
#include "util/thread_pool.hpp"

namespace stayaway {
namespace {

// DESIGN.md §13: eight full host pipelines — map, predict, act, degraded
// -mode bookkeeping and observability publish — driven 200 periods each
// on a 4-worker fleet team, all publishing into one shared observer.
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

/// Four coordinated hosts: a mobile cpubomb that migrates off web-a, a
/// late admission, and a crash on web-b that the supervisor recovers
/// from mid-run while the coordinator keeps stepping.
constexpr const char* kCoordinatedScenario = R"(sensitive  = webservice-cpu
batch      = none
policy     = stay-away
duration_s = 80
workload   = constant
[host "web-a"]
seed = 3
[host "web-b"]
seed = 5
fault_seed = 1
fault = host-crash start=40 end=41
[host "web-c"]
seed = 7
[host "web-d"]
seed = 9
[cluster]
mobile = crunch:cpubomb:web-a:20
admit  = late:soplex:30
)";

struct CoordinatedRun {
  harness::FleetResult result;
  std::vector<replay::HostStream> streams;
  std::size_t events = 0;
};

CoordinatedRun run_coordinated(std::size_t workers) {
  std::istringstream in(kCoordinatedScenario);
  harness::FleetSpec spec =
      replay::to_fleet_spec(harness::parse_fleet_scenario(in));
  spec.workers = workers;
  spec.checkpoint_every = 5;
  spec.export_checkpoints = true;
  std::vector<std::string> names;
  for (const harness::FleetHostSpec& host : spec.hosts) {
    names.push_back(host.name);
  }
  replay::RunRecorder recorder(names);
  spec.recorder = &recorder;
  std::ostringstream events;
  obs::JsonlSink sink(events);
  obs::Observer observer(&sink);
  spec.observer = &observer;
  CoordinatedRun run;
  run.result = harness::run_fleet(spec);
  run.streams = recorder.streams();
  run.events = sink.emitted();
  return run;
}

std::vector<std::string> encoded(const std::vector<core::PeriodRecord>& recs) {
  std::vector<std::string> out;
  out.reserve(recs.size());
  for (const core::PeriodRecord& rec : recs) {
    out.push_back(core::encode_record(rec));
  }
  return out;
}

// DESIGN.md §18: a coordinated fleet drives its hosts on the worker
// team one period at a time and steps the coordinator between periods
// with every worker at the period barrier. The worker count must be invisible: recorded
// streams, result series, recoveries, the coordinator's decisions and
// every final checkpoint match the serial run exactly. Runs under TSan
// via `ci.sh --fleet`.
TEST(FleetConcurrency, CoordinatedFleetOnFourWorkersMatchesSerialRun) {
  CoordinatedRun serial = run_coordinated(1);
  CoordinatedRun parallel = run_coordinated(4);

  ASSERT_TRUE(serial.result.cluster.has_value());
  ASSERT_TRUE(parallel.result.cluster.has_value());
  const harness::ClusterReport& sc = *serial.result.cluster;
  const harness::ClusterReport& pc = *parallel.result.cluster;
  // The scenario exercises what it claims to: a migration, a decided
  // admission and a recovered crash.
  EXPECT_GE(sc.migrations, 1u);
  EXPECT_GE(sc.admitted + sc.rejected, 1u);
  EXPECT_GE(serial.result.hosts.at(1).recovery.recoveries, 1u);
  EXPECT_EQ(serial.result.hosts.at(1).recovery.divergences, 0u);

  EXPECT_EQ(pc.events, sc.events);
  EXPECT_EQ(pc.migrations, sc.migrations);
  EXPECT_EQ(pc.admitted, sc.admitted);
  EXPECT_EQ(pc.rejected, sc.rejected);
  EXPECT_EQ(pc.queued, sc.queued);
  EXPECT_FALSE(sc.final_coordinator.empty());
  EXPECT_EQ(pc.final_coordinator, sc.final_coordinator);
  EXPECT_EQ(parallel.events, serial.events);

  ASSERT_EQ(serial.streams.size(), 4u);
  ASSERT_EQ(parallel.streams.size(), 4u);
  ASSERT_EQ(serial.result.hosts.size(), 4u);
  ASSERT_EQ(parallel.result.hosts.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string& name = serial.result.hosts[i].name;
    SCOPED_TRACE(name);
    EXPECT_EQ(parallel.streams[i].name, serial.streams[i].name);
    EXPECT_EQ(parallel.streams[i].records, serial.streams[i].records);
    const harness::FleetHostResult& ph = parallel.result.hosts[i];
    const harness::FleetHostResult& sh = serial.result.hosts[i];
    EXPECT_EQ(ph.name, name);
    EXPECT_EQ(encoded(ph.result.stayaway_records),
              encoded(sh.result.stayaway_records));
    EXPECT_EQ(ph.result.time, sh.result.time);
    EXPECT_EQ(ph.result.qos, sh.result.qos);
    EXPECT_EQ(ph.result.violated, sh.result.violated);
    EXPECT_EQ(ph.result.utilization, sh.result.utilization);
    EXPECT_EQ(ph.result.batch_running, sh.result.batch_running);
    EXPECT_EQ(ph.result.offered_tps, sh.result.offered_tps);
    EXPECT_EQ(ph.result.completed_tps, sh.result.completed_tps);
    EXPECT_EQ(ph.result.batch_cpu_work, sh.result.batch_cpu_work);
    EXPECT_EQ(ph.result.pauses, sh.result.pauses);
    EXPECT_EQ(ph.result.resumes, sh.result.resumes);
    const harness::RecoveryReport& pr = ph.recovery;
    const harness::RecoveryReport& sr = sh.recovery;
    EXPECT_EQ(pr.crashes, sr.crashes);
    EXPECT_EQ(pr.stage_throws, sr.stage_throws);
    EXPECT_EQ(pr.stalls, sr.stalls);
    EXPECT_EQ(pr.watchdog_trips, sr.watchdog_trips);
    EXPECT_EQ(pr.recoveries, sr.recoveries);
    EXPECT_EQ(pr.corrupt_checkpoints_dropped, sr.corrupt_checkpoints_dropped);
    EXPECT_EQ(pr.cold_starts, sr.cold_starts);
    EXPECT_EQ(pr.checkpoints_saved, sr.checkpoints_saved);
    EXPECT_EQ(pr.gap_periods_replayed, sr.gap_periods_replayed);
    EXPECT_EQ(pr.divergences, sr.divergences);
    EXPECT_FALSE(sh.final_checkpoint.empty());
    EXPECT_EQ(ph.final_checkpoint, sh.final_checkpoint);
  }
}

struct WebFleetRun {
  std::vector<std::vector<std::string>> records;  // encoded, per host
  std::vector<std::uint64_t> hits;
  std::vector<std::uint64_t> misses;
};

/// Four Stay-Away-guarded webservice hosts: two mixes, and web-3 at a
/// Zipf exponent of its own. The hosts are built, driven for 60 periods
/// and torn down on a `workers`-thread team, each worker owning a fixed
/// slice of the hosts the way run_fleet splits them, so the Zipf table
/// intern map takes racing lookups, inserts and expiries, and the
/// workers read the shared tables concurrently while driving.
WebFleetRun run_web_fleet(std::size_t workers) {
  constexpr std::size_t kHosts = 4;
  constexpr std::size_t kPeriods = 60;
  constexpr std::size_t kTicksPerPeriod = 10;
  struct Host {
    std::unique_ptr<sim::SimHost> sim;
    const apps::Webservice* web = nullptr;
    std::unique_ptr<core::HostPipeline> pipeline;
  };
  std::vector<Host> hosts(kHosts);
  auto on_slices = [workers](const std::function<void(std::size_t)>& fn) {
    util::run_team(workers, [&](std::size_t w) {
      for (std::size_t i = w * kHosts / workers;
           i < (w + 1) * kHosts / workers; ++i) {
        fn(i);
      }
    });
  };
  on_slices([&](std::size_t i) {
    apps::WebserviceSpec ws;
    ws.mix = (i % 2 == 0) ? apps::WorkloadMix::Mixed
                          : apps::WorkloadMix::MemIntensive;
    ws.zipf_exponent = (i == 3) ? 1.1 : 0.9;
    ws.seed = 40 + i;
    Host& h = hosts[i];
    h.sim = std::make_unique<sim::SimHost>(harness::paper_host());
    auto app = std::make_unique<apps::Webservice>(ws);
    h.web = app.get();
    h.sim->add_vm("webservice", sim::VmKind::Sensitive, std::move(app), 2.0);
    for (auto& batch : harness::make_batch(harness::BatchKind::Batch2)) {
      std::string name(batch->name());
      h.sim->add_vm(std::move(name), sim::VmKind::Batch, std::move(batch),
                    15.0);
    }
    core::StayAwayConfig config;
    config.seed = 70 + i;
    config.sampler.seed = config.seed ^ 0xabcdULL;
    h.pipeline = std::make_unique<core::HostPipeline>(*h.sim, *h.web, config);
  });

  WebFleetRun run;
  run.records.resize(kHosts);
  on_slices([&](std::size_t i) {
    for (std::size_t p = 0; p < kPeriods; ++p) {
      hosts[i].sim->run(kTicksPerPeriod);
      run.records[i].push_back(
          core::encode_record(hosts[i].pipeline->on_period()));
    }
  });
  for (const Host& h : hosts) {
    run.hits.push_back(h.web->cache().hits());
    run.misses.push_back(h.web->cache().misses());
  }
  on_slices([&](std::size_t i) {
    hosts[i].pipeline.reset();
    hosts[i].sim.reset();
  });
  return run;
}

// Webservice hosts of one keyspace share one immutable Zipf table
// (stats/zipf.hpp). Building, driving and destroying them on four
// workers must be invisible in the results: every host's records and
// cache counts match the same fleet built and run on one worker. Runs
// under TSan via `ci.sh --tsan` and `ci.sh --fleet`.
TEST(FleetConcurrency, WebserviceHostsShareZipfTables) {
  WebFleetRun serial = run_web_fleet(1);
  WebFleetRun parallel = run_web_fleet(4);
  ASSERT_EQ(serial.records.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE("web-" + std::to_string(i));
    EXPECT_EQ(serial.records[i].size(), 60u);
    EXPECT_EQ(parallel.records[i], serial.records[i]);
  }
  EXPECT_EQ(parallel.hits, serial.hits);
  EXPECT_EQ(parallel.misses, serial.misses);
  // The exponents and mixes give the hosts distinct replays.
  EXPECT_NE(serial.hits[0], serial.hits[2]);
  EXPECT_NE(serial.hits[1], serial.hits[3]);
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
  base.stayaway.ingest.source = monitor::IngestSource::Ring;
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
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter("stress.t" + std::to_string(t)).value(), kOps);
  }
  // Every observation was counted and landed in a bucket: bucket sums
  // equal count.
  obs::MetricsSnapshot snap = reg.snapshot();
  bool seen = false;
  for (const auto& h : snap.histograms) {
    if (h.name != "stress.latency") continue;
    seen = true;
    EXPECT_EQ(h.count, kThreads * kOps);
    std::uint64_t bucket_total = 0;
    for (std::uint64_t b : h.buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, h.count);
  }
  EXPECT_TRUE(seen);
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
