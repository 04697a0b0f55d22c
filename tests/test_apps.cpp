// Unit tests for src/apps: phase machine, the batch workload models,
// the sensitive apps' QoS behaviour and the LRU cache substrate.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <list>
#include <unordered_map>
#include <vector>

#include "apps/cpubomb.hpp"
#include "apps/lru_cache.hpp"
#include "apps/membomb.hpp"
#include "apps/phase.hpp"
#include "apps/soplex.hpp"
#include "apps/twitter_analysis.hpp"
#include "apps/vlc_stream.hpp"
#include "apps/vlc_transcode.hpp"
#include "apps/webservice.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stayaway::apps {
namespace {

sim::Allocation full_progress() {
  sim::Allocation a;
  a.progress = 1.0;
  return a;
}

sim::Allocation with_progress(double p) {
  sim::Allocation a;
  a.progress = p;
  return a;
}

// ---------------------------------------------------------------- phase
TEST(PhaseMachine, AdvancesThroughPhases) {
  Phase a{"a", {}, 1.0};
  Phase b{"b", {}, 2.0};
  PhaseMachine pm({a, b}, /*loop=*/false);
  EXPECT_EQ(pm.current().name, "a");
  pm.advance(0.5, 1.0);
  EXPECT_EQ(pm.current().name, "a");
  pm.advance(0.6, 1.0);
  EXPECT_EQ(pm.current().name, "b");
  pm.advance(2.0, 1.0);
  EXPECT_TRUE(pm.finished());
  EXPECT_EQ(pm.cycles_completed(), 1u);
}

TEST(PhaseMachine, LoopsWhenConfigured) {
  Phase a{"a", {}, 1.0};
  PhaseMachine pm({a}, /*loop=*/true);
  pm.advance(5.5, 1.0);
  EXPECT_FALSE(pm.finished());
  EXPECT_EQ(pm.cycles_completed(), 5u);
}

TEST(PhaseMachine, ThrottlingStretchesPhases) {
  Phase a{"a", {}, 1.0};
  Phase b{"b", {}, 1.0};
  PhaseMachine pm({a, b}, false);
  pm.advance(1.0, 0.5);  // only 0.5 effective seconds
  EXPECT_EQ(pm.current().name, "a");
  pm.advance(1.0, 0.5);
  EXPECT_EQ(pm.current().name, "b");
}

TEST(PhaseMachine, ZeroProgressFreezes) {
  Phase a{"a", {}, 1.0};
  PhaseMachine pm({a}, true);
  pm.advance(100.0, 0.0);
  EXPECT_EQ(pm.cycles_completed(), 0u);
}

TEST(PhaseMachine, CycleDuration) {
  // One cycle lasts the sum of the phase durations.
  PhaseMachine pm({{"a", {}, 1.5}, {"b", {}, 2.5}}, true);
  pm.advance(3.5, 1.0);
  EXPECT_EQ(pm.cycles_completed(), 0u);
  EXPECT_EQ(pm.current().name, "b");
  pm.advance(1.0, 1.0);
  EXPECT_EQ(pm.cycles_completed(), 1u);
  EXPECT_EQ(pm.current().name, "a");
}

TEST(PhaseMachine, InvalidConstruction) {
  EXPECT_THROW(PhaseMachine({}, false), PreconditionError);
  EXPECT_THROW(PhaseMachine({{"a", {}, 0.0}}, false), PreconditionError);
}

TEST(PhaseMachine, CurrentAfterFinishThrows) {
  PhaseMachine pm({{"a", {}, 1.0}}, false);
  pm.advance(2.0, 1.0);
  EXPECT_THROW(pm.current(), PreconditionError);
}

// -------------------------------------------------------------- cpubomb
TEST(CpuBomb, DemandsConfiguredCores) {
  CpuBomb bomb(3.0);
  EXPECT_DOUBLE_EQ(bomb.demand(0.0).cpu_cores, 3.0);
  EXPECT_FALSE(bomb.finished());
}

TEST(CpuBomb, FinishesAfterConfiguredWork) {
  CpuBomb bomb(2.0, /*total_work_s=*/1.0);
  sim::Allocation a;
  a.granted.cpu_cores = 2.0;
  bomb.advance(0.0, 0.4, a);
  EXPECT_FALSE(bomb.finished());
  bomb.advance(0.0, 0.2, a);
  EXPECT_TRUE(bomb.finished());
  EXPECT_NEAR(bomb.work_done(), 1.2, 1e-9);
}

TEST(CpuBomb, NoPhaseChanges) {
  CpuBomb bomb;
  auto d0 = bomb.demand(0.0);
  bomb.advance(0.0, 100.0, full_progress());
  auto d1 = bomb.demand(100.0);
  EXPECT_DOUBLE_EQ(d0.cpu_cores, d1.cpu_cores);
  EXPECT_DOUBLE_EQ(d0.membw_mbps, d1.membw_mbps);
}

// -------------------------------------------------------------- membomb
TEST(MemBomb, RampsAllocationToTarget) {
  MemBombSpec spec;
  spec.target_mb = 1000.0;
  spec.ramp_s = 10.0;
  MemBomb bomb(spec);
  EXPECT_LT(bomb.demand(0.0).memory_mb, 1000.0);
  for (int i = 0; i < 200; ++i) bomb.advance(0.0, 0.1, full_progress());
  EXPECT_NEAR(bomb.allocated_mb(), 1000.0, 1e-6);
  EXPECT_DOUBLE_EQ(bomb.demand(20.0).memory_mb, 1000.0);
}

TEST(MemBomb, AlternatesHoldAndSweep) {
  MemBombSpec spec;
  spec.target_mb = 100.0;
  spec.ramp_s = 1.0;
  spec.hold_s = 2.0;
  spec.sweep_s = 1.0;
  MemBomb bomb(spec);
  for (int i = 0; i < 11; ++i) bomb.advance(0.0, 0.1, full_progress());
  // Past ramp, in hold: low bandwidth.
  double hold_bw = bomb.demand(1.1).membw_mbps;
  for (int i = 0; i < 21; ++i) bomb.advance(0.0, 0.1, full_progress());
  // Now 2.1s into cycle -> sweep phase.
  double sweep_bw = bomb.demand(3.2).membw_mbps;
  EXPECT_GT(sweep_bw, 5.0 * hold_bw);
}

TEST(MemBomb, ThrottledRampIsSlower) {
  MemBombSpec spec;
  spec.target_mb = 1000.0;
  spec.ramp_s = 10.0;
  MemBomb fast(spec);
  MemBomb slow(spec);
  for (int i = 0; i < 50; ++i) {
    fast.advance(0.0, 0.1, full_progress());
    slow.advance(0.0, 0.1, with_progress(0.25));
  }
  EXPECT_GT(fast.allocated_mb(), 2.0 * slow.allocated_mb());
}

// --------------------------------------------------------------- soplex
TEST(Soplex, WorkingSetGrowsWithProgress) {
  SoplexSpec spec;
  Soplex s(spec);
  double ws0 = s.working_set_mb();
  for (int i = 0; i < 100; ++i) s.advance(0.0, 1.0, full_progress());
  EXPECT_GT(s.working_set_mb(), ws0);
  EXPECT_LE(s.working_set_mb(), spec.final_mb + 1e-9);
}

TEST(Soplex, FinishesAtTotalWork) {
  SoplexSpec spec;
  spec.total_work_s = 5.0;
  Soplex s(spec);
  for (int i = 0; i < 49; ++i) s.advance(0.0, 0.1, full_progress());
  EXPECT_FALSE(s.finished());
  s.advance(0.0, 0.2, full_progress());
  EXPECT_TRUE(s.finished());
}

TEST(Soplex, RefactorizationRaisesBandwidthDemand) {
  SoplexSpec spec;
  spec.refactor_interval_s = 5.0;
  spec.refactor_duration_s = 1.0;
  Soplex s(spec);
  double solve_bw = s.demand(0.0).membw_mbps;
  // Advance into the refactorization window (work time 5.0-6.0).
  for (int i = 0; i < 55; ++i) s.advance(0.0, 0.1, full_progress());
  double refactor_bw = s.demand(5.5).membw_mbps;
  EXPECT_GT(refactor_bw, 3.0 * solve_bw);
}

TEST(Soplex, ConstantCpuDemand) {
  Soplex s;
  double d0 = s.demand(0.0).cpu_cores;
  for (int i = 0; i < 50; ++i) s.advance(0.0, 1.0, full_progress());
  EXPECT_DOUBLE_EQ(s.demand(50.0).cpu_cores, d0);
}

// -------------------------------------------------------------- twitter
TEST(TwitterAnalysis, AlternatesCpuAndMemoryPhases) {
  TwitterAnalysisSpec spec;
  spec.score_s = 2.0;
  spec.scan_s = 1.0;
  TwitterAnalysis t(spec);
  EXPECT_FALSE(t.in_memory_phase());
  double cpu_phase_mem = t.demand(0.0).memory_mb;
  for (int i = 0; i < 25; ++i) t.advance(0.0, 0.1, full_progress());
  EXPECT_TRUE(t.in_memory_phase());
  EXPECT_GT(t.demand(2.5).memory_mb, 2.0 * cpu_phase_mem);
}

TEST(TwitterAnalysis, PausedPhasePositionFrozen) {
  TwitterAnalysisSpec spec;
  spec.score_s = 1.0;
  spec.scan_s = 1.0;
  TwitterAnalysis t(spec);
  for (int i = 0; i < 15; ++i) t.advance(0.0, 0.1, full_progress());
  EXPECT_TRUE(t.in_memory_phase());
  // Zero progress (paused): stays in the scan phase indefinitely.
  for (int i = 0; i < 100; ++i) t.advance(0.0, 0.1, with_progress(0.0));
  EXPECT_TRUE(t.in_memory_phase());
}

TEST(TwitterAnalysis, FinishesWhenBounded) {
  TwitterAnalysisSpec spec;
  spec.total_work_s = 1.0;
  TwitterAnalysis t(spec);
  for (int i = 0; i < 11; ++i) t.advance(0.0, 0.1, full_progress());
  EXPECT_TRUE(t.finished());
}

// ------------------------------------------------------------ vlcstream
TEST(VlcStream, FullAllocationMeetsQos) {
  VlcStream v;
  for (int i = 0; i < 20; ++i) v.advance(0.0, 0.1, full_progress());
  EXPECT_FALSE(v.violated());
  EXPECT_NEAR(v.qos_value(), 30.0, 0.5);
  EXPECT_NEAR(v.normalized_qos(), 30.0 / 24.0, 0.05);
}

TEST(VlcStream, ThrottledAllocationViolates) {
  VlcStream v;
  for (int i = 0; i < 30; ++i) v.advance(0.0, 0.1, with_progress(0.5));
  EXPECT_TRUE(v.violated());
  EXPECT_NEAR(v.qos_value(), 15.0, 1.0);
}

TEST(VlcStream, WorkloadScalesDemand) {
  trace::Trace workload({0.0, 100.0}, 10.0);  // ramps 0 -> 1 over 10 s
  VlcStreamSpec spec;
  VlcStream v(spec, workload);
  double lo = v.demand(0.0).cpu_cores;
  double hi = v.demand(10.0).cpu_cores;
  EXPECT_DOUBLE_EQ(lo, spec.cpu_at_valley);
  EXPECT_DOUBLE_EQ(hi, spec.cpu_at_peak);
  EXPECT_GT(v.demand(10.0).net_mbps, v.demand(0.0).net_mbps);
}

TEST(VlcStream, FinishesAfterDuration) {
  VlcStreamSpec spec;
  spec.duration_s = 1.0;
  VlcStream v(spec);
  for (int i = 0; i < 11; ++i) v.advance(0.0, 0.1, full_progress());
  EXPECT_TRUE(v.finished());
}

TEST(VlcStream, FramesAccumulate) {
  VlcStream v;
  for (int i = 0; i < 10; ++i) v.advance(0.0, 0.1, full_progress());
  EXPECT_NEAR(v.frames_delivered(), 30.0, 1.0);
}

TEST(VlcStream, InvalidSpecRejected) {
  VlcStreamSpec spec;
  spec.threshold_fps = 40.0;  // above nominal
  EXPECT_THROW(VlcStream{spec}, PreconditionError);
}

// --------------------------------------------------------- vlctranscode
TEST(VlcTranscode, ProcessesFramesAndFinishes) {
  VlcTranscodeSpec spec;
  spec.total_frames = 60.0;
  VlcTranscode t(spec);
  for (int i = 0; i < 10; ++i) t.advance(0.0, 0.1, full_progress());
  EXPECT_TRUE(t.finished());
  EXPECT_GE(t.frames_done(), 60.0);
}

TEST(VlcTranscode, RateThresholdViolation) {
  VlcTranscode t;
  for (int i = 0; i < 30; ++i) t.advance(0.0, 0.1, with_progress(0.5));
  EXPECT_TRUE(t.violated());  // 30 fps < 45 threshold
  for (int i = 0; i < 30; ++i) t.advance(0.0, 0.1, full_progress());
  EXPECT_FALSE(t.violated());
}

// ------------------------------------------------------------ lru cache
TEST(LruCache, HitAndMissAccounting) {
  LruCache c(8, 2);
  EXPECT_FALSE(c.get(1));
  c.put(1);
  EXPECT_TRUE(c.get(1));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.5);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache c(8, 2);
  c.put(1);
  c.put(2);
  EXPECT_TRUE(c.get(1));  // 1 is now most recent
  c.put(3);               // evicts 2
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
}

TEST(LruCache, PutRefreshesRecency) {
  LruCache c(8, 2);
  c.put(1);
  c.put(2);
  c.put(1);  // refresh 1
  c.put(3);  // evicts 2
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
}

TEST(LruCache, ZeroCapacityCachesNothing) {
  LruCache c(8, 0);
  c.put(1);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.get(1));
}

TEST(LruCache, SizeNeverExceedsCapacity) {
  LruCache c(100, 5);
  for (std::uint64_t k = 0; k < 100; ++k) c.put(k);
  EXPECT_EQ(c.size(), 5u);
}

TEST(LruCache, UniverseMustFitThirtyTwoBitLinks) {
  // The two largest 32-bit values are the list's sentinels.
  EXPECT_THROW(LruCache(std::numeric_limits<std::uint32_t>::max(), 1),
               PreconditionError);
  EXPECT_THROW(LruCache(std::numeric_limits<std::uint32_t>::max() - 1, 1),
               PreconditionError);
  // A capacity above the universe is accepted and never reached.
  LruCache c(4, 1000);
  for (std::uint64_t k = 0; k < 4; ++k) c.put(k);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.capacity(), 1000u);
}

TEST(LruCache, KeysOutsideTheUniverseThrow) {
  LruCache c(4, 2);
  c.put(3);
  EXPECT_THROW(c.get(4), PreconditionError);
  EXPECT_THROW(c.put(4), PreconditionError);
  EXPECT_THROW(c.contains(std::numeric_limits<std::uint64_t>::max()),
               PreconditionError);
  // A rejected key leaves the cache and its counters as they were.
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.hits() + c.misses(), 0u);
  EXPECT_TRUE(c.get(3));
  // A replay applies the keys before a rejected one, and no more.
  const std::vector<std::uint32_t> run = {1, 4, 2};
  EXPECT_THROW(c.replay(run), PreconditionError);
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_EQ(c.misses(), 1u);
  // An empty universe rejects every key, replayed ones too.
  LruCache empty(0, 4);
  EXPECT_THROW(empty.replay(run), PreconditionError);
  EXPECT_EQ(empty.size(), 0u);
}

/// A hash map over a std::list recency list: the plain LRU the dense
/// cache must match op for op.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool get(std::uint64_t key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    recency_.splice(recency_.begin(), recency_, it->second);
    ++hits_;
    return true;
  }
  void put(std::uint64_t key) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      recency_.splice(recency_.begin(), recency_, it->second);
      return;
    }
    if (capacity_ == 0) return;
    recency_.push_front(key);
    index_.emplace(key, recency_.begin());
    if (index_.size() > capacity_) {
      index_.erase(recency_.back());
      recency_.pop_back();
    }
  }
  bool contains(std::uint64_t key) const { return index_.count(key) != 0; }
  std::size_t size() const { return index_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::size_t capacity_;
  std::list<std::uint64_t> recency_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

TEST(LruCache, MatchesReferenceModelOpForOp) {
  constexpr std::size_t kUniverse = 1000;
  for (std::size_t capacity : {std::size_t{0}, std::size_t{1},
                               kUniverse / 2, kUniverse}) {
    SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
    LruCache dense(kUniverse, capacity);
    ReferenceLru ref(capacity);
    Rng rng(1000 + capacity);
    // The edge keys 0 and universe-1 come up a quarter of the time, so
    // they are hit, evicted and refreshed at every capacity.
    auto draw_key = [&]() -> std::uint64_t {
      switch (rng.index(8)) {
        case 0:
          return 0;
        case 1:
          return kUniverse - 1;
        default:
          return rng.index(kUniverse);
      }
    };
    for (int batch = 0; batch < 1000; ++batch) {
      for (int op = 0; op < 100; ++op) {
        const std::uint64_t k = draw_key();
        switch (rng.index(4)) {
          case 0:
            ASSERT_EQ(dense.get(k), ref.get(k)) << "batch " << batch;
            break;
          case 1:
            dense.put(k);
            ref.put(k);
            break;
          case 2:  // read-through, one key
            if (!dense.get(k)) dense.put(k);
            if (!ref.get(k)) ref.put(k);
            break;
          default: {  // read-through, a run of keys (the Webservice's tick)
            std::vector<std::uint32_t> run(rng.index(24));
            for (std::uint32_t& key : run) {
              key = static_cast<std::uint32_t>(draw_key());
              if (!ref.get(key)) ref.put(key);
            }
            dense.replay(run);
          }
        }
      }
      ASSERT_EQ(dense.size(), ref.size()) << "batch " << batch;
      ASSERT_EQ(dense.hits(), ref.hits()) << "batch " << batch;
      ASSERT_EQ(dense.misses(), ref.misses()) << "batch " << batch;
      for (std::uint64_t k = 0; k < kUniverse; ++k) {
        ASSERT_EQ(dense.contains(k), ref.contains(k))
            << "batch " << batch << " key " << k;
      }
    }
  }
}

// ----------------------------------------------------------- webservice
TEST(Webservice, FullAllocationMeetsQos) {
  Webservice ws;
  for (int i = 0; i < 30; ++i) ws.advance(0.0, 0.1, full_progress());
  EXPECT_FALSE(ws.violated());
  EXPECT_NEAR(ws.qos_value(), 1.0, 0.01);
}

TEST(Webservice, DegradedAllocationViolates) {
  Webservice ws;
  for (int i = 0; i < 30; ++i) ws.advance(0.0, 0.1, with_progress(0.5));
  EXPECT_TRUE(ws.violated());
}

TEST(Webservice, CacheHitRateImprovesAsItWarms) {
  Webservice ws;
  for (int i = 0; i < 5; ++i) ws.advance(0.0, 0.1, full_progress());
  double early = ws.cache_hit_rate();
  for (int i = 0; i < 300; ++i) ws.advance(0.0, 0.1, full_progress());
  EXPECT_GT(ws.cache_hit_rate(), early);
  EXPECT_GT(ws.cache_hit_rate(), 0.3);  // zipf head fits easily
}

TEST(Webservice, MixesDifferInDemandProfile) {
  WebserviceSpec cpu_spec;
  cpu_spec.mix = WorkloadMix::CpuIntensive;
  WebserviceSpec mem_spec;
  mem_spec.mix = WorkloadMix::MemIntensive;
  Webservice cpu_ws(cpu_spec);
  Webservice mem_ws(mem_spec);
  EXPECT_GT(cpu_ws.demand(0.0).cpu_cores, mem_ws.demand(0.0).cpu_cores);
  EXPECT_GT(mem_ws.demand(0.0).memory_mb, 2.0 * cpu_ws.demand(0.0).memory_mb);
}

TEST(Webservice, WorkloadTraceModulatesOfferedLoad) {
  trace::Trace workload({0.0, 10.0}, 100.0);
  WebserviceSpec spec;
  Webservice ws(spec, workload);
  EXPECT_LT(ws.offered_rps(0.0), ws.offered_rps(100.0));
  EXPECT_NEAR(ws.offered_rps(100.0), spec.peak_rps, 1e-9);
  EXPECT_NEAR(ws.offered_rps(0.0), spec.peak_rps * spec.min_rps_fraction, 1e-9);
}

TEST(Webservice, MissRateFeedsDiskDemand) {
  WebserviceSpec spec;
  spec.keyspace = 1000000;  // enormous keyspace -> high miss rate
  spec.zipf_exponent = 0.0;
  Webservice ws(spec);
  ws.advance(0.0, 0.1, full_progress());
  double cold_disk = ws.demand(0.1).disk_mbps;
  EXPECT_GT(cold_disk, 0.0);
  EXPECT_EQ(ws.cache().hits(), 0u);
  EXPECT_EQ(ws.cache().misses(), 400u);
  // A universe ten times the 100k-entry cache: the replay fills it and
  // then evicts ~265k keys. The counts are pinned to the hash-table
  // cache's, which the dense cache replaced.
  for (int i = 0; i < 1000; ++i) ws.advance(0.0, 0.1, full_progress());
  EXPECT_EQ(ws.cache().size(), 100000u);
  EXPECT_EQ(ws.cache().hits(), 35058u);
  EXPECT_EQ(ws.cache().misses(), 365342u);
}

TEST(Webservice, MixNamesStable) {
  EXPECT_STREQ(to_string(WorkloadMix::CpuIntensive), "cpu");
  EXPECT_STREQ(to_string(WorkloadMix::MemIntensive), "mem");
  EXPECT_STREQ(to_string(WorkloadMix::Mixed), "mix");
}

}  // namespace
}  // namespace stayaway::apps
