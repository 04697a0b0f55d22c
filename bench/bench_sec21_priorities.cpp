// Demonstrates the §2.1 capability: "if multiple sensitive applications
// are co-scheduled Stay-Away can choose to migrate or scale resources of
// the lower priority sensitive application" — in this implementation, to
// throttle it (the same low-cost, instantaneous actuation the paper
// chooses over migration).
//
// Two sensitive services share the host with no batch VM: a
// high-priority VLC stream and a lower-priority VLC transcode, whose
// combined CPU demand oversubscribes the host. With demotion enabled the
// middleware sacrifices the lower-priority service exactly when the
// high-priority one approaches violation.
#include <memory>

#include "apps/vlc_stream.hpp"
#include "apps/vlc_transcode.hpp"
#include "bench_common.hpp"
#include "core/pipeline.hpp"

namespace {

using namespace stayaway;
using namespace stayaway::bench;

struct Outcome {
  std::size_t high_violations = 0;
  double low_frames = 0.0;
  double low_paused_s = 0.0;
  std::size_t pauses = 0;
};

Outcome run(bool demotion) {
  sim::SimHost host(harness::paper_host(), 0.1);
  auto workload = harness::compressed_diurnal(300.0, 1.5, 42);
  auto vlc = std::make_unique<apps::VlcStream>(apps::VlcStreamSpec{}, workload);
  const sim::QosProbe* probe = vlc.get();
  host.add_vm("vlc-high", sim::VmKind::Sensitive, std::move(vlc), 2.0,
              /*priority=*/10);
  apps::VlcTranscodeSpec low_spec;
  low_spec.total_frames = 1e9;  // unbounded for the experiment
  sim::VmId low = host.add_vm("transcode-low", sim::VmKind::Sensitive,
                              std::make_unique<apps::VlcTranscode>(low_spec),
                              15.0, /*priority=*/1);

  core::StayAwayConfig cfg;
  cfg.allow_sensitive_demotion = demotion;
  cfg.seed = 31;
  core::HostPipeline pipeline(host, *probe, cfg);

  Outcome out;
  for (int p = 0; p < 300; ++p) {
    host.run(10);
    const auto& rec = pipeline.on_period();
    if (rec.violation_observed) ++out.high_violations;
  }
  const auto& transcode =
      dynamic_cast<const apps::VlcTranscode&>(host.vm(low).app());
  out.low_frames = transcode.frames_done();
  out.low_paused_s = host.vm(low).paused_time();
  out.pauses = pipeline.governor_actuator()->governor().pauses();
  return out;
}

}  // namespace

int main() {
  std::cout << "=== Section 2.1: priorities between co-scheduled sensitive "
               "applications ===\n\n";
  std::cout << "host: 4 cores; vlc-high (priority 10, QoS-protected) + "
               "transcode-low (priority 1)\n\n";
  std::cout << pad_right("variant", 22) << pad_left("high-prio viol", 16)
            << pad_left("low frames", 12) << pad_left("low paused s", 14)
            << pad_left("pauses", 8) << "\n";
  for (bool demotion : {false, true}) {
    Outcome out = run(demotion);
    std::cout << pad_right(demotion ? "demotion enabled" : "no demotion", 22)
              << pad_left(std::to_string(out.high_violations), 16)
              << pad_left(format_double(out.low_frames, 0), 12)
              << pad_left(format_double(out.low_paused_s, 1), 14)
              << pad_left(std::to_string(out.pauses), 8) << "\n";
  }
  std::cout << "\nExpected: without demotion there is nothing to throttle and\n"
               "the high-priority stream violates under contention; with\n"
               "demotion the low-priority service is paused during exactly\n"
               "those episodes and still progresses in between.\n";
  return 0;
}
