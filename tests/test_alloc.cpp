// Steady-state allocation tests (DESIGN.md §9): once its buffers have
// grown, a simulator tick allocates nothing, and a Stay-Away control
// period allocates only when a history vector (the record history, the
// actuation journal) regrows. This file is its own test binary because
// it replaces the global operator new with a counting one.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "core/pipeline.hpp"
#include "harness/experiment.hpp"
#include "harness/rig.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// The array and nothrow forms of the standard library's operator new
// call this one, so it sees every allocation the code under test makes.
// Not inlined: an optimizer that sees this malloc and the free below in
// one caller flags the pair as mismatched new/delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace stayaway {
namespace {

/// Heap allocations `body` makes.
template <typename Body>
std::size_t allocations_during(Body&& body) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Periods run before counting: long enough for every buffer to reach
/// its steady size and for the representative set to stop growing.
constexpr std::size_t kWarmUpPeriods = 500;
/// Periods counted.
constexpr std::size_t kPeriods = 2000;

struct Host {
  const char* label;
  harness::SensitiveKind sensitive;
  harness::BatchKind batch;
};

// On both hosts the controller pauses and resumes the batch VM every
// few dozen periods, so the actuation path is counted too.
constexpr Host kHosts[] = {
    {"vlc+cpubomb", harness::SensitiveKind::VlcStream,
     harness::BatchKind::CpuBomb},
    {"webservice-mem+membomb", harness::SensitiveKind::WebserviceMem,
     harness::BatchKind::MemBomb},
};

harness::ExperimentSpec spec_of(const Host& h) {
  harness::ExperimentSpec spec;
  spec.sensitive = h.sensitive;
  spec.batch = h.batch;
  spec.duration_s = static_cast<double>(kWarmUpPeriods + kPeriods);
  return spec;
}

std::size_t ticks_per_period(const harness::ExperimentSpec& spec) {
  return static_cast<std::size_t>(spec.period_s / spec.tick_s + 0.5);
}

TEST(SteadyStateAllocations, SimHostStepAllocatesNothing) {
  for (const Host& h : kHosts) {
    SCOPED_TRACE(h.label);
    const harness::ExperimentSpec spec = spec_of(h);
    harness::HostRig rig = harness::build_host_rig(spec);
    const std::size_t ticks = ticks_per_period(spec);
    rig.host->run(kWarmUpPeriods * ticks);
    const std::size_t n = allocations_during(
        [&] { rig.host->run(kPeriods * ticks); });
    EXPECT_EQ(n, 0u);
  }
}

// A period appends one record, and a pause or resume one journal entry;
// both vectors grow geometrically, so over n periods each regrows about
// log2(n) times. Anything allocated per period, or per actuation, blows
// through that bound within a few dozen periods.
TEST(SteadyStateAllocations, PipelinePeriodOnlyRegrowsHistory) {
  const std::size_t bound = 2 * std::bit_width(kPeriods);
  for (const Host& h : kHosts) {
    SCOPED_TRACE(h.label);
    const harness::ExperimentSpec spec = spec_of(h);
    harness::HostRig rig = harness::build_host_rig(spec);
    core::HostPipeline pipeline(*rig.host, *rig.probe,
                                harness::derive_stayaway_config(spec));
    const std::size_t ticks = ticks_per_period(spec);
    for (std::size_t p = 0; p < kWarmUpPeriods; ++p) {
      rig.host->run(ticks);
      pipeline.on_period();
    }
    std::size_t actions = 0;
    std::size_t n = 0;
    for (std::size_t p = 0; p < kPeriods; ++p) {
      const core::PeriodRecord* rec = nullptr;
      n += allocations_during([&] {
        rig.host->run(ticks);
        rec = &pipeline.on_period();
      });
      if (rec->action != core::ThrottleAction::None) ++actions;
    }
    EXPECT_LE(n, bound) << "over " << kPeriods << " periods with " << actions
                        << " pause/resume actions";
    EXPECT_GT(actions, 10u);
  }
}

}  // namespace
}  // namespace stayaway
