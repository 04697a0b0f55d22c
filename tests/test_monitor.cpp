// Unit tests for src/monitor: measurement layout, host sampler (incl. §5
// batch aggregation), capacity normalizer, representative dedup, mode
// detection.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "apps/cpubomb.hpp"
#include "monitor/health.hpp"
#include "monitor/measurement.hpp"
#include "monitor/mode.hpp"
#include "monitor/normalizer.hpp"
#include "monitor/representative.hpp"
#include "monitor/sampler.hpp"
#include "sim/host.hpp"
#include "util/check.hpp"

namespace stayaway::monitor {
namespace {

sim::HostSpec test_spec() {
  sim::HostSpec spec;
  spec.cpu_cores = 4.0;
  spec.memory_mb = 4096.0;
  spec.membw_mbps = 16000.0;
  spec.disk_mbps = 200.0;
  spec.net_mbps = 1000.0;
  return spec;
}

std::unique_ptr<sim::AppModel> cpu_app(double cores) {
  return std::make_unique<apps::CpuBomb>(cores);
}

// ------------------------------------------------------------ measurement
TEST(MetricLayout, IndexingAndNames) {
  MetricLayout layout;
  layout.entities = {"vlc", "batch"};
  layout.metrics = {MetricKind::Cpu, MetricKind::Memory};
  EXPECT_EQ(layout.dimension(), 4u);
  EXPECT_EQ(layout.index_of(0, 1), 1u);
  EXPECT_EQ(layout.index_of(1, 0), 2u);
  EXPECT_THROW(layout.index_of(2, 0), PreconditionError);
}

TEST(Measurement, AllocationMetricMapsKinds) {
  sim::Allocation a;
  a.granted.cpu_cores = 1.5;
  a.granted.memory_mb = 100.0;
  a.granted.membw_mbps = 200.0;
  a.granted.disk_mbps = 30.0;
  a.granted.net_mbps = 40.0;
  EXPECT_DOUBLE_EQ(allocation_metric(a, MetricKind::Cpu), 1.5);
  EXPECT_DOUBLE_EQ(allocation_metric(a, MetricKind::Memory), 100.0);
  EXPECT_DOUBLE_EQ(allocation_metric(a, MetricKind::MemBandwidth), 200.0);
  EXPECT_DOUBLE_EQ(allocation_metric(a, MetricKind::DiskIo), 30.0);
  EXPECT_DOUBLE_EQ(allocation_metric(a, MetricKind::Network), 40.0);
}

// --------------------------------------------------------------- sampler
TEST(Sampler, AggregatesBatchVmsIntoLogicalEntity) {
  sim::SimHost host(test_spec(), 0.1);
  host.add_vm("sensitive", sim::VmKind::Sensitive, cpu_app(1.0));
  host.add_vm("b1", sim::VmKind::Batch, cpu_app(1.0));
  host.add_vm("b2", sim::VmKind::Batch, cpu_app(0.5));
  SamplerConfig opts;
  opts.aggregate_batch = true;
  opts.noise_fraction = 0.0;
  HostSampler sampler(host, opts);
  ASSERT_EQ(sampler.layout().entities.size(), 2u);
  EXPECT_EQ(sampler.layout().entities[1], "batch-aggregate");

  host.run(2);
  Measurement m;
  sampler.sample(m);
  // Batch entity CPU = 1.0 + 0.5 summed.
  EXPECT_NEAR(m.values[sampler.layout().index_of(1, 0)], 1.5, 1e-9);
  EXPECT_NEAR(m.values[sampler.layout().index_of(0, 0)], 1.0, 1e-9);
}

TEST(Sampler, SingleBatchKeepsItsName) {
  sim::SimHost host(test_spec(), 0.1);
  host.add_vm("sensitive", sim::VmKind::Sensitive, cpu_app(1.0));
  host.add_vm("soplex", sim::VmKind::Batch, cpu_app(1.0));
  HostSampler sampler(host, {});
  EXPECT_EQ(sampler.layout().entities[1], "soplex");
}

TEST(Sampler, PerVmModeKeepsAllEntities) {
  sim::SimHost host(test_spec(), 0.1);
  host.add_vm("s", sim::VmKind::Sensitive, cpu_app(1.0));
  host.add_vm("b1", sim::VmKind::Batch, cpu_app(1.0));
  host.add_vm("b2", sim::VmKind::Batch, cpu_app(1.0));
  SamplerConfig opts;
  opts.aggregate_batch = false;
  HostSampler sampler(host, opts);
  EXPECT_EQ(sampler.layout().entities.size(), 3u);
}

TEST(Sampler, NoiseIsDeterministicPerSeed) {
  sim::SimHost host(test_spec(), 0.1);
  host.add_vm("s", sim::VmKind::Sensitive, cpu_app(2.0));
  host.run(1);
  SamplerConfig opts;
  opts.noise_fraction = 0.05;
  opts.seed = 7;
  HostSampler a(host, opts);
  HostSampler b(host, opts);
  Measurement ma;
  Measurement mb;
  a.sample(ma);
  b.sample(mb);
  for (std::size_t i = 0; i < ma.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(ma.values[i], mb.values[i]);
  }
}

TEST(Sampler, NoiseNeverProducesNegativeReadings) {
  sim::SimHost host(test_spec(), 0.1);
  host.add_vm("s", sim::VmKind::Sensitive, cpu_app(0.01));
  host.run(1);
  SamplerConfig opts;
  opts.noise_fraction = 2.0;  // extreme noise
  HostSampler sampler(host, opts);
  Measurement m;
  for (int i = 0; i < 100; ++i) {
    sampler.sample(m);
    for (double v : m.values) EXPECT_GE(v, 0.0);
  }
}

TEST(Sampler, PausedVmReadsZero) {
  sim::SimHost host(test_spec(), 0.1);
  host.add_vm("s", sim::VmKind::Sensitive, cpu_app(1.0));
  host.add_vm("b", sim::VmKind::Batch, cpu_app(2.0));
  SamplerConfig opts;
  opts.noise_fraction = 0.0;
  HostSampler sampler(host, opts);
  host.vm(1).pause();
  host.run(1);
  Measurement m;
  sampler.sample(m);
  EXPECT_DOUBLE_EQ(m.values[sampler.layout().index_of(1, 0)], 0.0);
}

// ------------------------------------------------------------ normalizer
TEST(CapacityNormalizer, NormalizesByHostCapacity) {
  MetricLayout layout;
  layout.entities = {"a"};
  layout.metrics = {MetricKind::Cpu, MetricKind::Memory, MetricKind::Network};
  CapacityNormalizer norm(test_spec(), layout);
  Measurement m;
  m.values = {2.0, 2048.0, 500.0};
  std::vector<double> n;
  norm.normalize(m, n);
  EXPECT_DOUBLE_EQ(n[0], 0.5);
  EXPECT_DOUBLE_EQ(n[1], 0.5);
  EXPECT_DOUBLE_EQ(n[2], 0.5);
}

TEST(CapacityNormalizer, ClampsOverCapacityReadings) {
  MetricLayout layout;
  layout.entities = {"a"};
  layout.metrics = {MetricKind::Cpu};
  CapacityNormalizer norm(test_spec(), layout);
  Measurement m;
  m.values = {99.0};
  std::vector<double> n{0.25, 0.5};  // replaced, not appended to
  norm.normalize(m, n);
  ASSERT_EQ(n.size(), 1u);
  EXPECT_DOUBLE_EQ(n[0], 1.0);
}

// The capacity vector follows the layout's flat order (entity-major),
// for every metric kind, whether the batch VMs aggregate or not.
TEST(CapacityNormalizer, CapacityOfEachFlatDimension) {
  sim::SimHost host(test_spec(), 0.1);
  host.add_vm("sensitive", sim::VmKind::Sensitive, cpu_app(1.0));
  host.add_vm("b1", sim::VmKind::Batch, cpu_app(1.0));
  host.add_vm("b2", sim::VmKind::Batch, cpu_app(0.5));
  auto expected = [](MetricKind kind) {
    switch (kind) {
      case MetricKind::Cpu:
        return 4.0;
      case MetricKind::Memory:
        return 4096.0;
      case MetricKind::MemBandwidth:
        return 16000.0;
      case MetricKind::DiskIo:
        return 200.0;
      case MetricKind::Network:
        return 1000.0;
    }
    return 0.0;
  };
  for (bool aggregate : {true, false}) {
    SCOPED_TRACE(aggregate ? "aggregated" : "per-VM");
    SamplerConfig opts;
    opts.metrics = {MetricKind::Network, MetricKind::Cpu,
                    MetricKind::MemBandwidth, MetricKind::DiskIo,
                    MetricKind::Memory};
    opts.aggregate_batch = aggregate;
    HostSampler sampler(host, opts);
    const MetricLayout& layout = sampler.layout();
    ASSERT_EQ(layout.entities.size(), aggregate ? 2u : 3u);
    CapacityNormalizer norm(test_spec(), layout);
    ASSERT_EQ(norm.capacity().size(), layout.dimension());
    for (std::size_t e = 0; e < layout.entities.size(); ++e) {
      for (std::size_t k = 0; k < layout.metrics.size(); ++k) {
        EXPECT_EQ(norm.capacity()[layout.index_of(e, k)],
                  expected(layout.metrics[k]))
            << "entity " << e << " metric " << k;
      }
    }
  }
}

TEST(CapacityNormalizer, LayoutMismatchRejected) {
  MetricLayout layout;
  layout.entities = {"a"};
  layout.metrics = {MetricKind::Cpu};
  CapacityNormalizer norm(test_spec(), layout);
  Measurement m;
  m.values = {1.0, 2.0};
  std::vector<double> n;
  EXPECT_THROW(norm.normalize(m, n), PreconditionError);
}

// --------------------------------------------------------- representative
TEST(RepresentativeSet, MergesNearbyVectors) {
  RepresentativeSet reps(0.1);
  auto a = reps.assign({0.5, 0.5});
  EXPECT_TRUE(a.is_new);
  EXPECT_EQ(a.representative, 0u);
  auto b = reps.assign({0.52, 0.51});  // within epsilon
  EXPECT_FALSE(b.is_new);
  EXPECT_EQ(b.representative, 0u);
  EXPECT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps.weight(0), 2u);
  EXPECT_EQ(reps.total_observed(), 2u);
}

TEST(RepresentativeSet, DistantVectorCreatesNewRepresentative) {
  RepresentativeSet reps(0.1);
  reps.assign({0.0, 0.0});
  auto b = reps.assign({1.0, 1.0});
  EXPECT_TRUE(b.is_new);
  EXPECT_EQ(reps.size(), 2u);
}

TEST(RepresentativeSet, AssignsToNearestRepresentative) {
  RepresentativeSet reps(0.3);
  reps.assign({0.0, 0.0});
  reps.assign({1.0, 0.0});
  auto c = reps.assign({0.9, 0.1});
  EXPECT_FALSE(c.is_new);
  EXPECT_EQ(c.representative, 1u);
  EXPECT_GT(c.distance, 0.0);
}

TEST(RepresentativeSet, ZeroEpsilonKeepsEverythingDistinct) {
  RepresentativeSet reps(0.0);
  reps.assign({0.0});
  auto b = reps.assign({1e-9});
  EXPECT_TRUE(b.is_new);
  // Exact duplicates still merge at epsilon 0.
  auto c = reps.assign({0.0});
  EXPECT_FALSE(c.is_new);
}

TEST(RepresentativeSet, DimensionMismatchRejected) {
  RepresentativeSet reps(0.1);
  reps.assign({0.0, 0.0});
  EXPECT_THROW(reps.assign({0.0}), PreconditionError);
  EXPECT_THROW(reps.assign({}), PreconditionError);
}

TEST(RepresentativeSet, ReductionShrinksNoisyStream) {
  // A noisy stationary stream must collapse into a handful of
  // representatives — the §4 optimisation that keeps SMACOF cheap.
  RepresentativeSet reps(0.05);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    reps.assign({0.5 + rng.normal(0.0, 0.005), 0.3 + rng.normal(0.0, 0.005)});
  }
  EXPECT_LT(reps.size(), 10u);
  EXPECT_EQ(reps.total_observed(), 500u);
}

TEST(RepresentativeSet, CapSnapsToNearestOnceFull) {
  RepresentativeSet reps(0.0, /*max_size=*/3);
  reps.assign({0.0});
  reps.assign({1.0});
  reps.assign({2.0});
  EXPECT_TRUE(reps.full());
  // A distant vector would normally create a new representative; at the
  // cap it snaps to the nearest one instead.
  auto a = reps.assign({10.0});
  EXPECT_FALSE(a.is_new);
  EXPECT_EQ(a.representative, 2u);
  EXPECT_EQ(reps.size(), 3u);
  EXPECT_EQ(reps.weight(2), 2u);
}

TEST(RepresentativeSet, ZeroCapMeansUnbounded) {
  RepresentativeSet reps(0.0, 0);
  for (int i = 0; i < 50; ++i) reps.assign({static_cast<double>(i)});
  EXPECT_EQ(reps.size(), 50u);
  EXPECT_FALSE(reps.full());
}

TEST(RepresentativeSet, RuntimeConfigBoundsGrowth) {
  // A pathological configuration (epsilon 0, heavy noise) must not grow
  // the representative set past the configured cap.
  sim::SimHost host(test_spec(), 0.1);
  host.add_vm("s", sim::VmKind::Sensitive, cpu_app(1.0));
  SamplerConfig opts;
  opts.noise_fraction = 0.3;
  RepresentativeSet reps(0.0, 16);
  HostSampler sampler(host, opts);
  Measurement m;
  for (int i = 0; i < 500; ++i) {
    host.step();
    sampler.sample(m);
    reps.assign(m.values);
  }
  EXPECT_LE(reps.size(), 16u);
  EXPECT_EQ(reps.total_observed(), 500u);
}

// ------------------------------------------------------------------ mode
TEST(Mode, DetectsAllFourModes) {
  sim::SimHost host(test_spec(), 0.1);
  auto sid = host.add_vm("s", sim::VmKind::Sensitive, cpu_app(1.0), 1.0);
  auto bid = host.add_vm("b", sim::VmKind::Batch, cpu_app(1.0), 2.0);

  EXPECT_EQ(detect_mode(host), ExecutionMode::Idle);  // t=0: none arrived
  host.run(11);  // t ~= 1.1: sensitive only (11 ticks dodges 10*0.1 < 1.0)
  EXPECT_EQ(detect_mode(host), ExecutionMode::SensitiveOnly);
  host.run(10);  // t ~= 2.1: both
  EXPECT_EQ(detect_mode(host), ExecutionMode::CoLocated);
  host.vm(sid).pause();
  EXPECT_EQ(detect_mode(host), ExecutionMode::BatchOnly);
  host.vm(sid).resume();
  host.vm(bid).pause();
  EXPECT_EQ(detect_mode(host), ExecutionMode::SensitiveOnly);
}

TEST(Mode, PausedBatchDoesNotCountAsRunning) {
  sim::SimHost host(test_spec(), 0.1);
  host.add_vm("b", sim::VmKind::Batch, cpu_app(1.0));
  host.vm(0).pause();
  EXPECT_EQ(detect_mode(host), ExecutionMode::Idle);
}

TEST(Mode, NamesStable) {
  EXPECT_STREQ(to_string(ExecutionMode::Idle), "idle");
  EXPECT_STREQ(to_string(ExecutionMode::CoLocated), "co-located");
}

// ---------------------------------------------------------------- health
TEST(MetricKindNames, RoundTrip) {
  for (MetricKind kind :
       {MetricKind::Cpu, MetricKind::Memory, MetricKind::MemBandwidth,
        MetricKind::DiskIo, MetricKind::Network}) {
    EXPECT_EQ(metric_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(metric_kind_from_string("temperature"), PreconditionError);
}

TEST(SampleQuarantine, PassesHealthyReadingsThroughUntouched) {
  SampleQuarantine q({4.0, 4096.0});
  std::vector<double> v{1.5, 2048.0};
  SampleHealth h = q.validate(v);
  EXPECT_EQ(h.quarantined, 0u);
  EXPECT_EQ(h.max_staleness, 0u);
  EXPECT_FALSE(h.imputed());
  EXPECT_DOUBLE_EQ(v[0], 1.5);
  EXPECT_DOUBLE_EQ(v[1], 2048.0);
  EXPECT_EQ(q.total_quarantined(), 0u);
}

TEST(SampleQuarantine, ImputesLastGoodForBadReadings) {
  SampleQuarantine q({4.0, 4096.0});
  std::vector<double> good{1.5, 2048.0};
  q.validate(good);
  // NaN, Inf, negative and out-of-range readings are all quarantined and
  // replaced by the dimension's last good value.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), -1.0, 100.0}) {
    std::vector<double> v{bad, 1024.0};
    SampleHealth h = q.validate(v);
    EXPECT_EQ(h.quarantined, 1u);
    EXPECT_TRUE(h.imputed());
    EXPECT_DOUBLE_EQ(v[0], 1.5);      // imputed last-good
    EXPECT_DOUBLE_EQ(v[1], 1024.0);   // healthy dim untouched
  }
  EXPECT_EQ(q.total_quarantined(), 4u);
}

TEST(SampleQuarantine, TracksStalenessPerDimension) {
  SampleQuarantine q({4.0});
  std::vector<double> good{1.0};
  q.validate(good);
  for (std::size_t i = 1; i <= 3; ++i) {
    std::vector<double> v{std::numeric_limits<double>::quiet_NaN()};
    SampleHealth h = q.validate(v);
    EXPECT_EQ(h.max_staleness, i);
  }
  // A fresh good reading resets the staleness run.
  std::vector<double> fresh{2.0};
  EXPECT_EQ(q.validate(fresh).max_staleness, 0u);
  std::vector<double> nan_again{std::numeric_limits<double>::quiet_NaN()};
  SampleHealth h = q.validate(nan_again);
  EXPECT_EQ(h.max_staleness, 1u);
  EXPECT_DOUBLE_EQ(nan_again[0], 2.0);  // imputes the newest good value
}

TEST(SampleQuarantine, BadFirstSampleImputesZero) {
  // No last-good history yet: quarantined readings become 0, never NaN.
  SampleQuarantine q({4.0});
  std::vector<double> v{std::numeric_limits<double>::quiet_NaN()};
  SampleHealth h = q.validate(v);
  EXPECT_EQ(h.quarantined, 1u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
}

TEST(SampleQuarantine, RejectsInvalidConstruction) {
  EXPECT_THROW(SampleQuarantine({}), PreconditionError);
  EXPECT_THROW(SampleQuarantine({1.0, 0.0}), PreconditionError);
  EXPECT_THROW(SampleQuarantine({std::numeric_limits<double>::infinity()}),
               PreconditionError);
  SampleQuarantine q({1.0});
  std::vector<double> wrong_size{0.5, 0.5};
  EXPECT_THROW(q.validate(wrong_size), PreconditionError);
}

TEST(Sampler, RejectsVmsAddedAfterConstruction) {
  // The sampler fixes its metric layout at construction; a VM added
  // afterwards would silently sample through a stale entity map, so
  // sample() must fail loudly instead.
  sim::SimHost host(test_spec(), 0.1);
  host.add_vm("sensitive", sim::VmKind::Sensitive, cpu_app(1.0));
  host.add_vm("b1", sim::VmKind::Batch, cpu_app(1.0));
  HostSampler sampler(host, {});
  host.run(2);
  Measurement m;
  EXPECT_NO_THROW(sampler.sample(m));
  host.add_vm("late", sim::VmKind::Batch, cpu_app(0.5));
  EXPECT_THROW(sampler.sample(m), InvariantError);
}

}  // namespace
}  // namespace stayaway::monitor
