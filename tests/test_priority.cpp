// Tests for the §2.1 multi-sensitive priority capability: when several
// sensitive applications are co-scheduled and no batch VM exists, the
// runtime may (opt-in) throttle the lower-priority sensitive VM to
// protect the higher-priority one.
#include <gtest/gtest.h>

#include <memory>

#include "apps/vlc_stream.hpp"
#include "apps/vlc_transcode.hpp"
#include "core/pipeline.hpp"
#include "harness/scenarios.hpp"

namespace stayaway::core {
namespace {

struct PriorityRig {
  sim::SimHost host;
  const sim::QosProbe* probe = nullptr;  // of the high-priority VM
  sim::VmId high = 0;
  sim::VmId low = 0;

  PriorityRig() : host(harness::paper_host(), 0.1) {
    auto vlc = std::make_unique<apps::VlcStream>();
    probe = vlc.get();
    high = host.add_vm("vlc", sim::VmKind::Sensitive, std::move(vlc),
                       /*start=*/0.0, /*priority=*/10);
    low = host.add_vm("transcode", sim::VmKind::Sensitive,
                      std::make_unique<apps::VlcTranscode>(), /*start=*/3.0,
                      /*priority=*/1);
  }
};

StayAwayConfig demotion_config() {
  StayAwayConfig cfg;
  cfg.allow_sensitive_demotion = true;
  cfg.seed = 5;
  return cfg;
}

TEST(Priority, VmCarriesPriority) {
  PriorityRig rig;
  EXPECT_EQ(rig.host.vm(rig.high).priority(), 10);
  EXPECT_EQ(rig.host.vm(rig.low).priority(), 1);
}

TEST(Priority, LowerPrioritySensitiveDemotedUnderContention) {
  PriorityRig rig;
  HostPipeline rt(rig.host, *rig.probe, demotion_config());
  for (int p = 0; p < 40; ++p) {
    rig.host.run(10);
    rt.on_period();
  }
  // VLC (2.6 cores) + transcode (2.5 cores) oversubscribe the host; the
  // protected VM violates and the low-priority sensitive VM is paused.
  EXPECT_GT(rig.host.vm(rig.low).paused_time(), 1.0);
  EXPECT_DOUBLE_EQ(rig.host.vm(rig.high).paused_time(), 0.0);
  EXPECT_GT(rt.governor_actuator()->governor().pauses(), 0u);
}

TEST(Priority, DemotionDisabledByDefault) {
  PriorityRig rig;
  StayAwayConfig cfg;
  cfg.seed = 5;  // allow_sensitive_demotion defaults to false
  HostPipeline rt(rig.host, *rig.probe, cfg);
  for (int p = 0; p < 40; ++p) {
    rig.host.run(10);
    rt.on_period();
  }
  EXPECT_DOUBLE_EQ(rig.host.vm(rig.low).paused_time(), 0.0);
  EXPECT_DOUBLE_EQ(rig.host.vm(rig.high).paused_time(), 0.0);
}

TEST(Priority, BatchVmPreferredOverSensitiveDemotion) {
  // With a batch VM present, demotion must never touch the sensitive VM.
  sim::SimHost host(harness::paper_host(), 0.1);
  auto vlc = std::make_unique<apps::VlcStream>();
  const sim::QosProbe* probe = vlc.get();
  host.add_vm("vlc", sim::VmKind::Sensitive, std::move(vlc), 0.0, 10);
  auto low = host.add_vm("transcode-sensitive", sim::VmKind::Sensitive,
                         std::make_unique<apps::VlcTranscode>(), 0.0, 1);
  // Batch present from t=0: a pause must always find it first.
  auto batch = host.add_vm("transcode-batch", sim::VmKind::Batch,
                           std::make_unique<apps::VlcTranscode>(), 0.0);

  HostPipeline rt(host, *probe, demotion_config());
  for (int p = 0; p < 40; ++p) {
    host.run(10);
    rt.on_period();
  }
  EXPECT_GT(host.vm(batch).paused_time(), 0.0);
  EXPECT_DOUBLE_EQ(host.vm(low).paused_time(), 0.0);
}

TEST(Priority, DemotedVmResumesLater) {
  PriorityRig rig;
  StayAwayConfig cfg = demotion_config();
  cfg.governor.starvation_patience_s = 5.0;
  cfg.governor.random_resume_probability = 1.0;
  HostPipeline rt(rig.host, *rig.probe, cfg);
  for (int p = 0; p < 60; ++p) {
    rig.host.run(10);
    rt.on_period();
  }
  // The anti-starvation probe must have resumed the demoted VM at least
  // once (its transcode job keeps making some progress).
  EXPECT_GT(rt.governor_actuator()->governor().resumes(), 0u);
  const auto& transcode =
      dynamic_cast<const apps::VlcTranscode&>(rig.host.vm(rig.low).app());
  EXPECT_GT(transcode.frames_done(), 0.0);
}

}  // namespace
}  // namespace stayaway::core
