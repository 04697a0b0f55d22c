// Reproduces Figure 7: "Snapshot of gradual transition of states when VLC
// streaming is co-located with Twitter-Analysis ... Action status:True"
//
// Twitter-Analysis builds pressure gradually (memory phase ramps, workload
// swells), so the trajectory migrates across the map rather than jumping;
// Stay-Away is active and throttles before violations land.
#include <iostream>
#include <memory>

#include "apps/twitter_analysis.hpp"
#include "apps/vlc_stream.hpp"
#include "core/pipeline.hpp"
#include "harness/scenarios.hpp"
#include "util/ascii_plot.hpp"
#include "util/strings.hpp"

int main() {
  using namespace stayaway;

  std::cout << "=== Figure 7: gradual transitions, "
               "VLC streaming + Twitter-Analysis (actions on) ===\n\n";

  sim::SimHost host(harness::paper_host(), 0.1);
  apps::VlcStreamSpec vlc_spec;
  auto workload = harness::compressed_diurnal(300.0, 1.5, 23);
  auto vlc = std::make_unique<apps::VlcStream>(vlc_spec, workload);
  const sim::QosProbe* probe = vlc.get();
  host.add_vm("vlc", sim::VmKind::Sensitive, std::move(vlc), 2.0);
  host.add_vm("twitter", sim::VmKind::Batch,
              std::make_unique<apps::TwitterAnalysis>(), 15.0);

  core::StayAwayConfig cfg;  // actions enabled (Action status: True)
  core::HostPipeline pipeline(host, *probe, cfg);

  for (int period = 0; period < 300; ++period) {
    host.run(10);
    pipeline.on_period();
  }

  ScatterGroup throttling{"throttled periods", 'T', {}};
  ScatterGroup running{"co-running periods", '.', {}};
  ScatterGroup violation{"violation states", '#', {}};
  const auto& space = pipeline.stay_away_mapper()->space();
  for (const auto& rec : pipeline.records()) {
    if (space.label(rec.representative) == core::StateLabel::Violation) {
      violation.points.emplace_back(rec.state.x, rec.state.y);
    } else if (rec.batch_paused_after) {
      throttling.points.emplace_back(rec.state.x, rec.state.y);
    } else {
      running.points.emplace_back(rec.state.x, rec.state.y);
    }
  }
  PlotOptions opts;
  opts.title = "mapped space snapshot (Action status: True)";
  std::cout << plot_scatter({running, throttling, violation}, opts) << "\n";

  // Measure transition gradualness: consecutive-state step lengths in the
  // co-located mode.
  double mean_step = 0.0;
  std::size_t steps = 0;
  const auto& recs = pipeline.records();
  for (std::size_t i = 1; i < recs.size(); ++i) {
    if (recs[i].mode == monitor::ExecutionMode::CoLocated &&
        recs[i - 1].mode == monitor::ExecutionMode::CoLocated) {
      mean_step += mds::distance(recs[i - 1].state, recs[i].state);
      ++steps;
    }
  }
  if (steps > 0) mean_step /= static_cast<double>(steps);

  std::cout << "co-located steps: " << steps
            << ", mean step length: " << format_double(mean_step, 4)
            << " (small relative to map scale "
            << format_double(space.scale(), 4) << " -> gradual)\n";
  const core::ThrottleGovernor& governor =
      pipeline.governor_actuator()->governor();
  std::cout << "pauses: " << governor.pauses()
            << ", resumes: " << governor.resumes()
            << ", violation states: " << space.violation_count() << "\n";

  // Action timeline, the shading of the paper's figure.
  std::vector<double> paused_series;
  for (const auto& rec : recs) {
    paused_series.push_back(rec.batch_paused_after ? 1.0 : 0.0);
  }
  PlotOptions topts;
  topts.title = "throttle state over time (1 = batch paused)";
  topts.height = 6;
  std::cout << "\n" << plot_lines({paused_series}, {"paused"}, topts);
  return 0;
}
