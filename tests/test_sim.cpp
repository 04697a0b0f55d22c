// Unit tests for src/sim: contention resolution (water-filling, swap,
// friction), VM lifecycle, host tick loop and ledgers.
#include <gtest/gtest.h>

#include <memory>

#include "sim/contention.hpp"
#include "sim/host.hpp"
#include "sim/vm.hpp"
#include "util/check.hpp"

namespace stayaway::sim {
namespace {

/// Constant-demand app for driving the simulator in tests.
class FixedApp final : public AppModel {
 public:
  explicit FixedApp(ResourceDemand d, double total_work_s = -1.0)
      : demand_(d), total_work_s_(total_work_s) {}

  std::string_view name() const override { return "fixed"; }
  bool finished() const override {
    return total_work_s_ > 0.0 && work_done_ >= total_work_s_;
  }
  ResourceDemand demand(SimTime) override { return demand_; }
  void advance(SimTime, double dt, const Allocation& alloc) override {
    work_done_ += dt * alloc.progress;
    last_progress_ = alloc.progress;
  }

  double work_done() const { return work_done_; }
  double last_progress() const { return last_progress_; }

 private:
  ResourceDemand demand_;
  double total_work_s_;
  double work_done_ = 0.0;
  double last_progress_ = 1.0;
};

HostSpec test_host() {
  HostSpec spec;
  spec.cpu_cores = 4.0;
  spec.memory_mb = 4096.0;
  spec.membw_mbps = 16000.0;
  spec.disk_mbps = 200.0;
  spec.net_mbps = 1000.0;
  spec.swap_penalty = 8.0;
  spec.contention_friction = 0.5;
  return spec;
}

ResourceDemand cpu_demand(double cores) {
  ResourceDemand d;
  d.cpu_cores = cores;
  return d;
}

// ------------------------------------------------------------ contention
TEST(Contention, UndersubscribedGetsFullDemand) {
  std::vector<ResourceDemand> demands{cpu_demand(1.0), cpu_demand(2.0)};
  std::vector<Allocation> alloc;
  resolve_contention(test_host(), demands, alloc);
  EXPECT_DOUBLE_EQ(alloc[0].granted.cpu_cores, 1.0);
  EXPECT_DOUBLE_EQ(alloc[1].granted.cpu_cores, 2.0);
  EXPECT_DOUBLE_EQ(alloc[0].progress, 1.0);
  EXPECT_DOUBLE_EQ(alloc[1].progress, 1.0);
}

TEST(Contention, WaterFillingProtectsSmallDemands) {
  // A small demand below fair share must be fully satisfied even when a
  // hog wants everything (CFS behaviour, unlike naive proportional share).
  std::vector<ResourceDemand> demands{cpu_demand(0.5), cpu_demand(10.0)};
  std::vector<Allocation> alloc;
  resolve_contention(test_host(), demands, alloc);
  EXPECT_DOUBLE_EQ(alloc[0].granted.cpu_cores, 0.5);
  EXPECT_NEAR(alloc[1].granted.cpu_cores, 3.5, 1e-9);
}

TEST(Contention, EqualHogsSplitEvenly) {
  std::vector<ResourceDemand> demands{cpu_demand(4.0), cpu_demand(4.0)};
  std::vector<Allocation> alloc;
  resolve_contention(test_host(), demands, alloc);
  EXPECT_NEAR(alloc[0].granted.cpu_cores, 2.0, 1e-9);
  EXPECT_NEAR(alloc[1].granted.cpu_cores, 2.0, 1e-9);
}

TEST(Contention, CapacityConserved) {
  std::vector<ResourceDemand> demands{cpu_demand(3.0), cpu_demand(2.0),
                                      cpu_demand(1.5)};
  std::vector<Allocation> alloc;
  resolve_contention(test_host(), demands, alloc);
  double total = 0.0;
  for (const auto& a : alloc) total += a.granted.cpu_cores;
  EXPECT_NEAR(total, 4.0, 1e-9);
}

TEST(Contention, FrictionDegradesCoRunners) {
  HostSpec host = test_host();
  std::vector<ResourceDemand> demands{cpu_demand(1.0), cpu_demand(5.0)};
  std::vector<Allocation> alloc;
  resolve_contention(host, demands, alloc);
  // Demand 1.0 is granted fully, but co-run friction still bites:
  // excess = 6/4 - 1 = 0.5, efficiency = 1/1.25 = 0.8.
  EXPECT_DOUBLE_EQ(alloc[0].granted.cpu_cores, 1.0);
  EXPECT_NEAR(alloc[0].progress, 0.8, 1e-9);

  host.contention_friction = 0.0;
  resolve_contention(host, demands, alloc);
  EXPECT_DOUBLE_EQ(alloc[0].progress, 1.0);
}

TEST(Contention, SwapPenaltyOnMemoryOvercommit) {
  HostSpec host = test_host();
  std::vector<ResourceDemand> demands(2);
  demands[0].memory_mb = 2000.0;
  demands[1].memory_mb = 3000.0;  // total 5000 > 4096 -> overflow 904
  std::vector<Allocation> alloc;
  resolve_contention(host, demands, alloc);
  // Overflow distributed proportionally to working set.
  EXPECT_NEAR(alloc[0].swapped_fraction, 904.0 * (2000.0 / 5000.0) / 2000.0,
              1e-9);
  EXPECT_NEAR(alloc[1].swapped_fraction, 904.0 * (3000.0 / 5000.0) / 3000.0,
              1e-9);
  EXPECT_LT(alloc[0].progress, 1.0);
  EXPECT_GT(alloc[0].granted.memory_mb, 0.0);
  EXPECT_LT(alloc[0].granted.memory_mb, 2000.0);
}

TEST(Contention, NoSwapWhenMemoryFits) {
  std::vector<ResourceDemand> demands(2);
  demands[0].memory_mb = 2000.0;
  demands[1].memory_mb = 2000.0;
  std::vector<Allocation> alloc;
  resolve_contention(test_host(), demands, alloc);
  EXPECT_DOUBLE_EQ(alloc[0].swapped_fraction, 0.0);
  EXPECT_DOUBLE_EQ(alloc[0].progress, 1.0);
}

TEST(Contention, BottleneckResourceSetsProgress) {
  HostSpec host = test_host();
  std::vector<ResourceDemand> demands(2);
  demands[0].cpu_cores = 1.0;
  demands[0].membw_mbps = 12000.0;
  demands[1].membw_mbps = 12000.0;  // bus oversubscribed 1.5x
  std::vector<Allocation> alloc;
  resolve_contention(host, demands, alloc);
  // Each gets 8000 of 12000 -> progress 2/3 (no CPU excess).
  EXPECT_NEAR(alloc[0].progress, 2.0 / 3.0, 1e-9);
}

TEST(Contention, ZeroDemandHasFullProgress) {
  std::vector<ResourceDemand> demands(2);
  demands[1].cpu_cores = 8.0;
  std::vector<Allocation> alloc;
  resolve_contention(test_host(), demands, alloc);
  EXPECT_DOUBLE_EQ(alloc[0].progress, 1.0);
  EXPECT_DOUBLE_EQ(alloc[0].granted.cpu_cores, 0.0);
}

TEST(Contention, EmptyDemandsHandled) {
  std::vector<Allocation> alloc;
  resolve_contention(test_host(), {}, alloc);
  EXPECT_TRUE(alloc.empty());
}

TEST(Contention, InvalidHostRejected) {
  HostSpec bad = test_host();
  bad.cpu_cores = 0.0;
  std::vector<Allocation> alloc;
  EXPECT_THROW(resolve_contention(bad, {}, alloc), PreconditionError);
}

TEST(Contention, ReusedBufferMatchesAFreshOne) {
  // The first result is larger and sets every field a later, smaller one
  // leaves at its default (swap, oversubscribed rates); the buffer must
  // not leak any of it into the second result.
  std::vector<ResourceDemand> big(4);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i].cpu_cores = 3.0;
    big[i].memory_mb = 1500.0;
    big[i].membw_mbps = 6000.0;
    big[i].disk_mbps = 90.0;
    big[i].net_mbps = 400.0;
  }
  std::vector<ResourceDemand> small{cpu_demand(0.5), cpu_demand(10.0)};
  small[0].memory_mb = 100.0;

  std::vector<Allocation> reused;
  resolve_contention(test_host(), big, reused);
  ASSERT_GT(reused[1].swapped_fraction, 0.0);
  resolve_contention(test_host(), small, reused);
  std::vector<Allocation> fresh;
  resolve_contention(test_host(), small, fresh);

  ASSERT_EQ(reused.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(reused[i].granted.cpu_cores, fresh[i].granted.cpu_cores) << i;
    EXPECT_EQ(reused[i].granted.memory_mb, fresh[i].granted.memory_mb) << i;
    EXPECT_EQ(reused[i].granted.membw_mbps, fresh[i].granted.membw_mbps) << i;
    EXPECT_EQ(reused[i].granted.disk_mbps, fresh[i].granted.disk_mbps) << i;
    EXPECT_EQ(reused[i].granted.net_mbps, fresh[i].granted.net_mbps) << i;
    EXPECT_EQ(reused[i].swapped_fraction, fresh[i].swapped_fraction) << i;
    EXPECT_EQ(reused[i].swap_io_mbps, fresh[i].swap_io_mbps) << i;
    EXPECT_EQ(reused[i].progress, fresh[i].progress) << i;
  }
}

// ------------------------------------------------------------------- vm
TEST(Vm, LifecycleStates) {
  SimVm vm(0, "app", VmKind::Batch, std::make_unique<FixedApp>(cpu_demand(1.0)),
           10.0);
  EXPECT_FALSE(vm.present(5.0));   // not arrived yet
  EXPECT_FALSE(vm.active(5.0));
  EXPECT_TRUE(vm.present(10.0));
  EXPECT_TRUE(vm.active(10.0));
  vm.pause();
  EXPECT_TRUE(vm.present(10.0));
  EXPECT_FALSE(vm.active(10.0));
  vm.resume();
  EXPECT_TRUE(vm.active(10.0));
}

TEST(Vm, FinishedAppIsInactive) {
  auto app = std::make_unique<FixedApp>(cpu_demand(1.0), /*total_work_s=*/0.1);
  auto* raw = app.get();
  SimVm vm(0, "app", VmKind::Batch, std::move(app), 0.0);
  EXPECT_TRUE(vm.active(1.0));
  sim::Allocation full;
  full.progress = 1.0;
  raw->advance(0.0, 0.2, full);  // completes the work
  EXPECT_FALSE(vm.active(1.0));
  EXPECT_FALSE(vm.present(1.0));
}

TEST(Vm, NullAppRejected) {
  EXPECT_THROW(SimVm(0, "x", VmKind::Batch, nullptr, 0.0), PreconditionError);
}

// ----------------------------------------------------------------- host
TEST(Host, TickAdvancesTimeAndWork) {
  SimHost host(test_host(), 0.1);
  auto app = std::make_unique<FixedApp>(cpu_demand(2.0));
  auto* raw = app.get();
  host.add_vm("a", VmKind::Sensitive, std::move(app));
  host.run(10);
  EXPECT_NEAR(host.now(), 1.0, 1e-9);
  EXPECT_NEAR(raw->work_done(), 1.0, 1e-9);  // full progress for 1 s
  EXPECT_NEAR(host.vm(0).cpu_work_done(), 2.0, 1e-9);
  EXPECT_NEAR(host.instantaneous_cpu_utilization(), 0.5, 1e-9);
}

TEST(Host, PausedVmDemandsNothing) {
  SimHost host(test_host(), 0.1);
  auto app = std::make_unique<FixedApp>(cpu_demand(2.0));
  auto* raw = app.get();
  host.add_vm("a", VmKind::Batch, std::move(app));
  host.vm(0).pause();
  host.run(5);
  EXPECT_DOUBLE_EQ(raw->work_done(), 0.0);
  EXPECT_DOUBLE_EQ(host.instantaneous_cpu_utilization(), 0.0);
  EXPECT_NEAR(host.vm(0).paused_time(), 0.5, 1e-9);
}

TEST(Host, VmNotStartedDoesNotRun) {
  SimHost host(test_host(), 0.1);
  auto app = std::make_unique<FixedApp>(cpu_demand(1.0));
  auto* raw = app.get();
  host.add_vm("late", VmKind::Batch, std::move(app), /*start_time=*/1.0);
  host.run(5);  // t = 0.5 < 1.0
  EXPECT_DOUBLE_EQ(raw->work_done(), 0.0);
  host.run(10);  // now past start
  EXPECT_GT(raw->work_done(), 0.0);
}

TEST(Host, ContentionSlowsBoth) {
  SimHost host(test_host(), 0.1);
  auto a = std::make_unique<FixedApp>(cpu_demand(3.0));
  auto b = std::make_unique<FixedApp>(cpu_demand(3.0));
  auto* ra = a.get();
  host.add_vm("a", VmKind::Sensitive, std::move(a));
  host.add_vm("b", VmKind::Batch, std::move(b));
  host.run(10);
  // Each granted 2 of 3 -> 2/3, friction: excess 0.5 -> x0.8 -> 0.533.
  EXPECT_NEAR(ra->last_progress(), (2.0 / 3.0) * 0.8, 1e-9);
  EXPECT_NEAR(host.instantaneous_cpu_utilization(), 1.0, 1e-9);
}

TEST(Host, AllFinishedDetected) {
  SimHost host(test_host(), 0.1);
  host.add_vm("a", VmKind::Batch,
              std::make_unique<FixedApp>(cpu_demand(1.0), 0.3));
  EXPECT_FALSE(host.vm(0).app().finished());
  host.run(10);
  EXPECT_TRUE(host.vm(0).app().finished());
}

TEST(Host, VmsOfKind) {
  SimHost host(test_host(), 0.1);
  host.add_vm("s", VmKind::Sensitive,
              std::make_unique<FixedApp>(cpu_demand(1.0)));
  host.add_vm("b1", VmKind::Batch, std::make_unique<FixedApp>(cpu_demand(1.0)));
  host.add_vm("b2", VmKind::Batch, std::make_unique<FixedApp>(cpu_demand(1.0)));
  EXPECT_EQ(host.vms_of_kind(VmKind::Sensitive).size(), 1u);
  EXPECT_EQ(host.vms_of_kind(VmKind::Batch).size(), 2u);
}

TEST(Host, UnknownVmIdRejected) {
  SimHost host(test_host(), 0.1);
  EXPECT_THROW(host.vm(0), PreconditionError);
}

TEST(Host, InvalidTickRejected) {
  EXPECT_THROW(SimHost(test_host(), 0.0), PreconditionError);
}

TEST(Host, FinishedAppStopsConsuming) {
  SimHost host(test_host(), 0.1);
  auto app = std::make_unique<FixedApp>(cpu_demand(4.0), /*total_work_s=*/0.2);
  host.add_vm("short", VmKind::Batch, std::move(app));
  host.run(2);  // finishes at 0.2s
  EXPECT_TRUE(host.vm(0).app().finished());
  host.step();
  EXPECT_DOUBLE_EQ(host.instantaneous_cpu_utilization(), 0.0);
}

}  // namespace
}  // namespace stayaway::sim
