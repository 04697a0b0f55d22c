// Example: wiring Stay-Away by hand (no experiment harness) around a VLC
// streaming server and two batch jobs — the lower-level API a downstream
// integrator would use to embed the per-host pipeline into their own
// control plane.
//
// Shows: host construction, per-VM scheduling, the period loop, reading
// the pipeline's stage internals (map, governor, predictions), and
// exporting the learned template at the end.
#include <fstream>
#include <iostream>
#include <memory>

#include "apps/soplex.hpp"
#include "apps/twitter_analysis.hpp"
#include "apps/vlc_stream.hpp"
#include "core/pipeline.hpp"
#include "harness/scenarios.hpp"
#include "util/strings.hpp"

int main() {
  using namespace stayaway;

  // 1. A host shaped like the paper's testbed: 4 cores, 4 GB.
  sim::SimHost host(harness::paper_host(), /*tick_seconds=*/0.1);

  // 2. The latency-sensitive VM: VLC streaming under a diurnal workload.
  apps::VlcStreamSpec vlc_spec;
  auto workload = harness::compressed_diurnal(/*experiment_s=*/240.0,
                                              /*cycles=*/2.0, /*seed=*/5);
  auto vlc = std::make_unique<apps::VlcStream>(vlc_spec, workload);
  const sim::QosProbe& probe = *vlc;  // QoS reporting channel (§3.1)
  host.add_vm("vlc", sim::VmKind::Sensitive, std::move(vlc), /*start=*/2.0);

  // 3. Two best-effort batch VMs (Table 1's Batch-1 combination). The
  //    sampler aggregates them into one logical VM (§5).
  host.add_vm("twitter", sim::VmKind::Batch,
              std::make_unique<apps::TwitterAnalysis>(), /*start=*/20.0);
  apps::SoplexSpec soplex_spec;
  soplex_spec.total_work_s = 1e9;
  host.add_vm("soplex", sim::VmKind::Batch,
              std::make_unique<apps::Soplex>(soplex_spec), /*start=*/20.0);

  // 4. The middleware itself: the full Stay-Away stage wiring
  //    (mapper -> forecaster -> governor actuator) on this host.
  core::StayAwayConfig config;
  config.period_s = 1.0;
  core::HostPipeline pipeline(host, probe, config);

  // 5. The control loop: 10 simulator ticks per 1 s control period.
  std::size_t violations = 0;
  for (int period = 0; period < 240; ++period) {
    host.run(10);
    const core::PeriodRecord& rec = pipeline.on_period();
    if (rec.violation_observed) ++violations;
    if (rec.action != core::ThrottleAction::None) {
      std::cout << "t=" << format_double(rec.time, 0) << "s  "
                << to_string(rec.action) << " (mode "
                << monitor::to_string(rec.mode)
                << (rec.violation_predicted ? ", predicted violation" : "")
                << (rec.violation_observed ? ", observed violation" : "")
                << ", beta=" << format_double(rec.beta, 3) << ")\n";
    }
  }

  // 6. What the middleware learned, read off the typed stage views.
  const core::StayAwayMapper& mapper = *pipeline.stay_away_mapper();
  const core::ThrottleGovernor& governor =
      pipeline.governor_actuator()->governor();
  std::cout << "\nviolating periods: " << violations << " / 240\n";
  std::cout << "representatives: " << mapper.representatives().size()
            << " (from " << mapper.representatives().total_observed()
            << " samples; dedup per paper section 4)\n";
  std::cout << "violation states: " << mapper.space().violation_count()
            << ", map stress: " << format_double(mapper.embedder().stress(), 3)
            << "\n";
  std::cout << "governor: " << governor.pauses() << " pauses, "
            << governor.resumes() << " resumes ("
            << governor.random_resumes() << " anti-starvation), "
            << governor.failed_resumes()
            << " failed -> beta=" << format_double(governor.beta(), 3)
            << "\n";

  // 7. Persist the learned template for the next co-location (§6).
  core::StateTemplate templ = mapper.export_template("vlc-stream");
  std::ofstream out("vlc_stream_template.csv");
  templ.save(out);
  std::cout << "template saved: vlc_stream_template.csv ("
            << templ.entries.size() << " states, "
            << templ.violation_count() << " violations)\n";
  return 0;
}
