// Fleet runner tests: pinned single-host goldens (fault-free and under a
// fault plan, for every policy kind), per-host seed splitting,
// host-labelled observability, worker-count invariance and the
// failing-host error path.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/lru_cache.hpp"
#include "apps/webservice.hpp"
#include "core/checkpoint.hpp"
#include "harness/fleet.hpp"
#include "harness/rig.hpp"
#include "obs/events.hpp"
#include "obs/observer.hpp"
#include "util/strings.hpp"
#include "util/sync.hpp"

namespace stayaway::harness {
namespace {

ExperimentSpec short_spec(PolicyKind policy) {
  ExperimentSpec spec;
  spec.sensitive = SensitiveKind::VlcStream;
  spec.batch = BatchKind::CpuBomb;
  spec.policy = policy;
  spec.duration_s = 40.0;
  spec.batch_start_s = 5.0;
  return spec;
}

sim::FaultSpec fault_of(sim::FaultKind kind, double start, double end,
                        double p = 1.0) {
  sim::FaultSpec s;
  s.kind = kind;
  s.start_s = start;
  s.end_s = end;
  s.probability = p;
  return s;
}

sim::FaultPlan stress_plan() {
  sim::FaultPlan plan;
  plan.seed = 11;
  plan.faults.push_back(
      fault_of(sim::FaultKind::SensorDropout, 5.0, 25.0, 0.3));
  plan.faults.push_back(fault_of(sim::FaultKind::QosBlind, 10.0, 18.0));
  plan.faults.push_back(fault_of(sim::FaultKind::PauseFail, 0.0, 30.0, 0.5));
  return plan;
}

/// Full-field comparison: two runs of the same hosts must agree exactly,
/// not approximately.
void expect_results_equal(const ExperimentResult& fleet,
                          const ExperimentResult& solo) {
  EXPECT_EQ(fleet.time, solo.time);
  EXPECT_EQ(fleet.qos, solo.qos);
  EXPECT_EQ(fleet.violated, solo.violated);
  EXPECT_EQ(fleet.utilization, solo.utilization);
  EXPECT_EQ(fleet.batch_running, solo.batch_running);
  EXPECT_EQ(fleet.offered_tps, solo.offered_tps);
  EXPECT_EQ(fleet.completed_tps, solo.completed_tps);
  EXPECT_EQ(fleet.violation_periods, solo.violation_periods);
  EXPECT_EQ(fleet.violation_fraction, solo.violation_fraction);
  EXPECT_EQ(fleet.avg_utilization, solo.avg_utilization);
  EXPECT_EQ(fleet.avg_qos, solo.avg_qos);
  EXPECT_EQ(fleet.batch_cpu_work, solo.batch_cpu_work);
  EXPECT_EQ(fleet.sensitive_cpu_work, solo.sensitive_cpu_work);
  EXPECT_EQ(fleet.stayaway_records, solo.stayaway_records);
  EXPECT_EQ(fleet.tally.true_positive, solo.tally.true_positive);
  EXPECT_EQ(fleet.tally.false_positive, solo.tally.false_positive);
  EXPECT_EQ(fleet.tally.true_negative, solo.tally.true_negative);
  EXPECT_EQ(fleet.tally.false_negative, solo.tally.false_negative);
  EXPECT_EQ(fleet.pauses, solo.pauses);
  EXPECT_EQ(fleet.resumes, solo.resumes);
  EXPECT_EQ(fleet.degraded_periods, solo.degraded_periods);
  EXPECT_EQ(fleet.failsafe_periods, solo.failsafe_periods);
  EXPECT_EQ(fleet.readings_quarantined, solo.readings_quarantined);
  EXPECT_EQ(fleet.actuation_retries, solo.actuation_retries);
  EXPECT_EQ(fleet.actuation_abandoned, solo.actuation_abandoned);
  EXPECT_EQ(fleet.final_beta, solo.final_beta);
  EXPECT_EQ(fleet.representative_count, solo.representative_count);
  EXPECT_EQ(fleet.final_stress, solo.final_stress);
}

TEST(FleetHostSeed, SplitsAreDeterministicAndDecorrelated) {
  EXPECT_EQ(fleet_host_seed(7, 0), fleet_host_seed(7, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {1ULL, 99ULL, 1234ULL}) {
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(seen.insert(fleet_host_seed(base, i)).second)
          << "collision at base " << base << " host " << i;
    }
  }
}

TEST(FleetHostSeed, NoAdditiveLatticeCollisions) {
  // Regression: the original mixer finalized `base + gamma * (i + 1)`,
  // so f(base + gamma, i) == f(base, i + 1) — two fleets whose base
  // seeds differ by the golden-ratio constant shared shifted host
  // streams. The current construction must not.
  const std::uint64_t gamma = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t base : {1ULL, 99ULL, 424242ULL}) {
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_NE(fleet_host_seed(base + gamma, i),
                fleet_host_seed(base, i + 1))
          << "lattice collision at base " << base << " host " << i;
      EXPECT_NE(fleet_host_seed(base - gamma, i + 1),
                fleet_host_seed(base, i))
          << "lattice collision at base " << base << " host " << i;
    }
  }
}

TEST(FleetHostSeed, SplitsAreStatisticallyIndependent) {
  // Avalanche: flipping host index or one base bit should flip ~half of
  // the 64 output bits. Averaged over many pairs, the per-bit flip rate
  // must sit near 0.5 — the additive lattice construction fails this
  // badly (adjacent indices differed by a constant before finalizing).
  auto popcount = [](std::uint64_t v) {
    int n = 0;
    for (; v != 0; v &= v - 1) ++n;
    return n;
  };
  double flips = 0.0;
  int pairs = 0;
  for (std::uint64_t base = 1; base <= 64; ++base) {
    for (std::size_t i = 0; i < 8; ++i) {
      flips += popcount(fleet_host_seed(base, i) ^
                        fleet_host_seed(base, i + 1));
      flips += popcount(fleet_host_seed(base, i) ^
                        fleet_host_seed(base ^ (1ULL << (i * 7)), i));
      pairs += 2;
    }
  }
  double mean_flips = flips / pairs;
  EXPECT_GT(mean_flips, 28.0);
  EXPECT_LT(mean_flips, 36.0);

  // Bit balance: across many splits every output bit position should be
  // set about half the time.
  for (int bit = 0; bit < 64; ++bit) {
    int set = 0;
    int total = 0;
    for (std::uint64_t base = 1; base <= 32; ++base) {
      for (std::size_t i = 0; i < 16; ++i) {
        set += static_cast<int>((fleet_host_seed(base * 11, i) >> bit) &
                                1u);
        ++total;
      }
    }
    double frac = static_cast<double>(set) / total;
    EXPECT_GT(frac, 0.3) << "bit " << bit << " stuck low";
    EXPECT_LT(frac, 0.7) << "bit " << bit << " stuck high";
  }
}

// Golden digests of the single-host path, captured from the historical
// run_experiment period loop before it became a fleet of one. Any drift
// of the single-host driver from that history fails here. The Stay-Away
// digests hash encode_record lines; they were re-derived on the
// pre-change build when encode_record became the run-log line.
struct Golden {
  PolicyKind policy;
  bool faulted;
  std::uint64_t digest;
};
constexpr Golden kGoldens[] = {
    {PolicyKind::NoPrevention, false, 0x5f41ac68212b97f1ULL},
    {PolicyKind::NoPrevention, true, 0x5f41ac68212b97f1ULL},
    {PolicyKind::StayAway, false, 0xb45146de1c9b5d48ULL},
    {PolicyKind::StayAway, true, 0xdc6c681ff896f62cULL},
    {PolicyKind::Reactive, false, 0xa5cfd5d1004e279bULL},
    {PolicyKind::Reactive, true, 0xa5cfd5d1004e279bULL},
    {PolicyKind::StaticThreshold, false, 0x31eeb084a7510293ULL},
    {PolicyKind::StaticThreshold, true, 0x31eeb084a7510293ULL},
};

std::uint64_t golden_of(PolicyKind policy, bool faulted) {
  for (const Golden& g : kGoldens) {
    if (g.policy == policy && g.faulted == faulted) return g.digest;
  }
  ADD_FAILURE() << "no golden for " << to_string(policy);
  return 0;
}

/// fnv1a64 over the encoded Stay-Away records plus the exact per-period
/// qos / violated / utilization / batch-running series and the delivered
/// batch work.
std::uint64_t result_digest(const ExperimentResult& r) {
  std::string text;
  for (const core::PeriodRecord& rec : r.stayaway_records) {
    text += core::encode_record(rec);
  }
  auto series = [&text](const char* name, const auto& values) {
    text += name;
    for (auto v : values) {
      text += ' ';
      text += format_double_exact(static_cast<double>(v));
    }
    text += '\n';
  };
  series("qos", r.qos);
  series("violated", r.violated);
  series("utilization", r.utilization);
  series("batch_running", r.batch_running);
  text += "batch_cpu_work " + format_double_exact(r.batch_cpu_work) + '\n';
  return core::fnv1a64(text);
}

FleetResult run_solo(const std::string& name, const ExperimentSpec& spec) {
  FleetSpec fleet;
  fleet.hosts.push_back({name, spec});
  return run_fleet(fleet);
}

TEST(Fleet, SingleHostMatchesExperimentByteIdentical) {
  ExperimentSpec spec = short_spec(PolicyKind::StayAway);
  FleetResult r = run_solo("solo", spec);
  ASSERT_EQ(r.hosts.size(), 1u);
  EXPECT_EQ(r.hosts[0].name, "solo");
  EXPECT_EQ(result_digest(r.hosts[0].result),
            golden_of(PolicyKind::StayAway, false));
  ASSERT_TRUE(r.hosts[0].result.exported_template.has_value());
  EXPECT_EQ(r.hosts[0].result.exported_template->entries.size(),
            r.hosts[0].result.representative_count);
  // run_experiment is the same fleet of one.
  expect_results_equal(run_experiment(spec), r.hosts[0].result);
}

TEST(Fleet, SingleHostMatchesExperimentUnderFaults) {
  ExperimentSpec spec = short_spec(PolicyKind::StayAway);
  spec.faults = stress_plan();
  ExperimentResult solo = run_experiment(spec);
  EXPECT_EQ(result_digest(solo), golden_of(PolicyKind::StayAway, true));
  // The plan must actually have degraded the loop, or the golden proves
  // nothing about the faulted path.
  EXPECT_GT(solo.degraded_periods + solo.failsafe_periods, 0u);
}

TEST(Fleet, BaselinePoliciesMatchExperiment) {
  for (PolicyKind policy :
       {PolicyKind::NoPrevention, PolicyKind::Reactive,
        PolicyKind::StaticThreshold}) {
    for (bool faulted : {false, true}) {
      ExperimentSpec spec = short_spec(policy);
      if (faulted) spec.faults = stress_plan();
      FleetResult r = run_solo("base", spec);
      ASSERT_EQ(r.hosts.size(), 1u) << to_string(policy);
      EXPECT_EQ(result_digest(r.hosts[0].result), golden_of(policy, faulted))
          << to_string(policy) << (faulted ? " faulted" : " fault-free");
      EXPECT_TRUE(r.hosts[0].result.stayaway_records.empty());
    }
  }
}

// Golden digests of webservice runs (the cache- and Zipf-driven app),
// one per workload mix under Stay-Away, fault-free, on a diurnal load.
// Over 240 s the mix and cpu caches fill and evict, and the mem and mix
// hosts pause their batch partner. The digest adds the completed-TPS
// series to result_digest's; the final cache counters pin the exact key
// stream and eviction order. Captured from the std::list/unordered_map
// cache with a binary-search Zipf sampler (digests re-derived on the
// pre-change build when encode_record became the run-log line); the
// flat cache and the guide-table sampler must match them bit for bit.
struct WebserviceGolden {
  SensitiveKind sensitive;
  BatchKind batch;
  std::uint64_t digest;
  std::uint64_t hits;
  std::uint64_t misses;
};
constexpr WebserviceGolden kWebserviceGoldens[] = {
    {SensitiveKind::WebserviceMem, BatchKind::MemBomb, 0xc13beacac1fb95a6ULL,
     805542, 146458},
    {SensitiveKind::WebserviceMix, BatchKind::Batch2, 0xc3eff2d22b968bc0ULL,
     782651, 169349},
    {SensitiveKind::WebserviceCpu, BatchKind::Soplex, 0xd27cf7939430ba9dULL,
     632727, 319273},
};

TEST(Fleet, WebserviceRunsMatchPinnedGolden) {
  for (const WebserviceGolden& g : kWebserviceGoldens) {
    ExperimentSpec spec;
    spec.sensitive = g.sensitive;
    spec.batch = g.batch;
    spec.policy = PolicyKind::StayAway;
    spec.duration_s = 240.0;
    spec.batch_start_s = 10.0;
    spec.workload = compressed_diurnal(spec.duration_s, 1.5, 21);
    const std::string label = to_string(g.sensitive);

    FleetResult r = run_solo("ws", spec);
    ASSERT_EQ(r.hosts.size(), 1u) << label;
    const ExperimentResult& res = r.hosts[0].result;
    ASSERT_FALSE(res.completed_tps.empty()) << label;
    std::string text = std::to_string(result_digest(res));
    for (double v : res.completed_tps) text += ' ' + format_double_exact(v);

    // The app draws its keys every tick whatever the controller does, so
    // a bare host run of the same spec leaves the cache exactly as the
    // controlled run did.
    HostRig rig = build_host_rig(spec);
    ASSERT_NE(rig.webservice, nullptr) << label;
    rig.host->run(static_cast<std::size_t>(
        std::llround(spec.duration_s / spec.tick_s)));
    const apps::LruCache& cache = rig.webservice->cache();
    EXPECT_EQ(core::fnv1a64(text), g.digest) << label;
    EXPECT_EQ(cache.hits(), g.hits) << label;
    EXPECT_EQ(cache.misses(), g.misses) << label;
    EXPECT_EQ(rig.webservice->cache_hit_rate(), cache.hit_rate()) << label;
  }
}

TEST(Fleet, ReplicateSplitsNamesAndSeeds) {
  FleetSpec fleet =
      replicate_fleet(short_spec(PolicyKind::StayAway), 3, 99, 2);
  ASSERT_EQ(fleet.hosts.size(), 3u);
  EXPECT_EQ(fleet.workers, 2u);
  EXPECT_EQ(fleet.hosts[0].name, "host0");
  EXPECT_EQ(fleet.hosts[2].name, "host2");
  EXPECT_NE(fleet.hosts[0].experiment.seed, fleet.hosts[1].experiment.seed);
  EXPECT_EQ(fleet.hosts[1].experiment.seed, fleet_host_seed(99, 1));
}

/// Per-host running fnv1a64 of the encoded records a sink receives, and
/// their count: two runs whose sinks agree saw the same records in the
/// same per-host order.
class DigestSink final : public PeriodSink {
 public:
  struct Stream {
    std::uint64_t digest = kFnv1a64Basis;
    std::size_t records = 0;
    bool operator==(const Stream&) const = default;
  };

  void record_period(const std::string& host,
                     const core::PeriodRecord& rec) override {
    const std::string line = core::encode_record(rec);
    util::MutexLock lock(mu_);
    Stream& s = streams_[host];
    s.digest = fnv1a64(line, s.digest);
    ++s.records;
  }

  std::map<std::string, Stream> streams() {
    util::MutexLock lock(mu_);
    return streams_;
  }

 private:
  util::Mutex mu_;
  std::map<std::string, Stream> streams_ SA_GUARDED_BY(mu_);
};

// Worker-count invariance. Each run is long enough that every host is
// handed between workers several times (more than three 256-period
// chunks), and 5 hosts on 2-4 workers never divide evenly, so hosts
// change threads mid-run; every result must still equal the one-worker
// run's. The supervised variant crashes one host mid-chunk and records
// every period through a sink.
TEST(Fleet, WorkersDoNotChangeResults) {
  constexpr std::size_t kHosts = 5;
  ExperimentSpec base = short_spec(PolicyKind::StayAway);
  base.duration_s = 800.0;  // 800 periods: 3 full chunks and a partial
  for (bool supervised : {false, true}) {
    SCOPED_TRACE(supervised ? "supervised" : "unsupervised");
    auto make = [&](std::size_t workers) {
      FleetSpec fleet = replicate_fleet(base, kHosts, 5, workers);
      if (supervised) {
        fleet.supervise = true;
        fleet.checkpoint_every = 100;
        fleet.hosts[2].experiment.faults = sim::FaultPlan{
            3, {fault_of(sim::FaultKind::HostCrash, 300.0, 301.0)}};
      }
      return fleet;
    };
    DigestSink serial_sink;
    FleetSpec serial = make(1);
    serial.recorder = &serial_sink;
    FleetResult rs = run_fleet(serial);
    ASSERT_EQ(rs.hosts.size(), kHosts);
    EXPECT_EQ(rs.hosts[2].recovery.crashes, supervised ? 1u : 0u);
    for (const auto& [host, stream] : serial_sink.streams()) {
      EXPECT_EQ(stream.records, 800u) << host;
    }
    for (std::size_t workers : {2u, 3u, 4u}) {
      SCOPED_TRACE("workers " + std::to_string(workers));
      DigestSink sink;
      FleetSpec parallel = make(workers);
      parallel.recorder = &sink;
      FleetResult rp = run_fleet(parallel);
      ASSERT_EQ(rp.hosts.size(), kHosts);
      for (std::size_t i = 0; i < kHosts; ++i) {
        EXPECT_EQ(rs.hosts[i].name, rp.hosts[i].name);
        expect_results_equal(rp.hosts[i].result, rs.hosts[i].result);
        EXPECT_EQ(rp.hosts[i].recovery.crashes, rs.hosts[i].recovery.crashes);
        EXPECT_EQ(rp.hosts[i].recovery.recoveries,
                  rs.hosts[i].recovery.recoveries);
        EXPECT_EQ(rp.hosts[i].recovery.gap_periods_replayed,
                  rs.hosts[i].recovery.gap_periods_replayed);
        EXPECT_EQ(rp.hosts[i].recovery.divergences, 0u);
      }
      EXPECT_EQ(sink.streams(), serial_sink.streams());
    }
    // Decorrelated seeds: sibling hosts must not mirror each other.
    EXPECT_NE(rs.hosts[0].result.stayaway_records,
              rs.hosts[1].result.stayaway_records);
  }
}

TEST(Fleet, HostLabelledObservability) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  obs::Observer observer(&sink);

  ExperimentSpec base = short_spec(PolicyKind::StayAway);
  base.duration_s = 20.0;
  FleetSpec fleet = replicate_fleet(base, 2, 42, 1);
  fleet.observer = &observer;
  run_fleet(fleet);

  // Metric keys are host-prefixed so the shared registry keeps the two
  // loops apart.
  EXPECT_EQ(observer.metrics().counter("host.host0.loop.periods").value(),
            20u);
  EXPECT_EQ(observer.metrics().counter("host.host1.loop.periods").value(),
            20u);
  EXPECT_EQ(observer.metrics().counter("loop.periods").value(), 0u);
  // Every event carries the host tag.
  std::string events = out.str();
  EXPECT_NE(events.find("\"host\":\"host0\""), std::string::npos);
  EXPECT_NE(events.find("\"host\":\"host1\""), std::string::npos);
}

TEST(Fleet, SingleHostKeepsUnlabelledObservability) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  obs::Observer observer(&sink);

  ExperimentSpec base = short_spec(PolicyKind::StayAway);
  base.duration_s = 20.0;
  FleetSpec fleet;
  fleet.hosts.push_back({"solo", base});
  fleet.observer = &observer;
  run_fleet(fleet);

  EXPECT_EQ(observer.metrics().counter("loop.periods").value(), 20u);
  EXPECT_EQ(out.str().find("\"host\":"), std::string::npos);
}

/// Counts the records each host hands the recorder and throws for host
/// m1 from period `fail_at` on. The recorder runs inside the
/// supervisor's trap, so a supervised m1 fails like a stage defect.
class FailingSink final : public PeriodSink {
 public:
  explicit FailingSink(std::size_t fail_at) : fail_at_(fail_at) {}

  void record_period(const std::string& host,
                     const core::PeriodRecord&) override {
    const std::size_t i = static_cast<std::size_t>(host.back() - '0');
    if (calls[i]++ >= fail_at_ && host == "m1") {
      throw std::runtime_error("host m1 failed");
    }
  }

  // Each host's counter is touched by one worker at a time: the one
  // holding the host (the fleet's hand-off orders successive holders).
  std::array<std::atomic<std::size_t>, 3> calls{};

 private:
  std::size_t fail_at_;
};

// The fleet loop's error path. Host m1's recorder call throws from
// period 2 on, so an unsupervised m1 fails at once and a supervised one
// exhausts its per-period recovery budget (1 + 3 attempts). Either way
// run_fleet rethrows that error — at one, three or eight workers (eight
// clamp to the three hosts), independent or coordinated — and a
// coordinated run stops at the failing period's barrier while an
// independent one lets the healthy hosts finish.
TEST(Fleet, FailingHostStopsTheRunWithItsError) {
  constexpr std::size_t kPeriods = 6;
  constexpr std::size_t kFailAt = 2;
  constexpr std::size_t kMaxRecoveriesPerPeriod = 3;
  ExperimentSpec spec = short_spec(PolicyKind::StayAway);
  spec.duration_s = static_cast<double>(kPeriods) * spec.period_s;
  for (bool supervised : {false, true}) {
    for (bool coordinated : {false, true}) {
      for (std::size_t workers : {1u, 3u, 8u}) {
        SCOPED_TRACE(std::string(supervised ? "supervised" : "unsupervised") +
                     (coordinated ? ", coordinated" : ", independent") +
                     ", workers " + std::to_string(workers));
        FleetSpec fleet;
        for (const char* name : {"m0", "m1", "m2"}) {
          fleet.hosts.push_back({name, spec});
        }
        fleet.workers = workers;
        fleet.supervise = supervised;
        fleet.checkpoint_every = 1;
        if (coordinated) fleet.cluster = ClusterSpec{};
        FailingSink sink(kFailAt);
        fleet.recorder = &sink;

        std::string error;
        try {
          run_fleet(fleet);
        } catch (const std::runtime_error& e) {
          error = e.what();
        }
        EXPECT_EQ(error, "host m1 failed");
        const std::size_t healthy_periods =
            coordinated ? kFailAt + 1 : kPeriods;
        EXPECT_EQ(sink.calls[0].load(), healthy_periods);
        EXPECT_EQ(sink.calls[2].load(), healthy_periods);
        const std::size_t attempts =
            supervised ? 1 + kMaxRecoveriesPerPeriod : 1;
        EXPECT_EQ(sink.calls[1].load(), kFailAt + attempts);
      }
    }
  }
}

}  // namespace
}  // namespace stayaway::harness
