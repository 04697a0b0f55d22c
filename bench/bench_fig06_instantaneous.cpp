// Reproduces Figure 6: "Snapshot of instantaneous transition of states
// when VLC transcoding is co-located with CPUBomb ... Action status:False"
//
// CPUBomb runs first (cluster A), VLC transcoding joins (cluster B), the
// CPU contention is instantaneous — states jump into the violation region
// (C) with almost no transit time. Stay-Away observes but does not act.
#include <iostream>
#include <memory>

#include "apps/cpubomb.hpp"
#include "apps/vlc_transcode.hpp"
#include "core/pipeline.hpp"
#include "harness/scenarios.hpp"
#include "util/ascii_plot.hpp"
#include "util/strings.hpp"

int main() {
  using namespace stayaway;

  std::cout << "=== Figure 6: instantaneous transitions, "
               "VLC transcoding + CPUBomb (actions off) ===\n\n";

  sim::SimHost host(harness::paper_host(), 0.1);
  auto transcode = std::make_unique<apps::VlcTranscode>();
  const sim::QosProbe* probe = transcode.get();
  // The transcode is the rate-thresholded app here; CPUBomb arrives first.
  host.add_vm("cpubomb", sim::VmKind::Batch, std::make_unique<apps::CpuBomb>(),
              0.0);
  host.add_vm("vlc-transcode", sim::VmKind::Sensitive, std::move(transcode),
              20.0);

  core::StayAwayConfig cfg;
  cfg.actions_enabled = false;
  core::HostPipeline pipeline(host, *probe, cfg);

  std::size_t first_violation_period = 0;
  std::size_t colocation_period = 0;
  for (int period = 0; period < 120; ++period) {
    host.run(10);
    const auto& rec = pipeline.on_period();
    if (colocation_period == 0 &&
        rec.mode == monitor::ExecutionMode::CoLocated) {
      colocation_period = static_cast<std::size_t>(period);
    }
    if (first_violation_period == 0 && rec.violation_observed) {
      first_violation_period = static_cast<std::size_t>(period);
    }
  }

  ScatterGroup batch_only{"A: cpubomb alone", 'A', {}};
  ScatterGroup colocated{"B: co-located", 'B', {}};
  ScatterGroup violation{"C: violation", '#', {}};
  const auto& space = pipeline.stay_away_mapper()->space();
  for (const auto& rec : pipeline.records()) {
    if (space.label(rec.representative) == core::StateLabel::Violation) {
      violation.points.emplace_back(rec.state.x, rec.state.y);
    } else if (rec.mode == monitor::ExecutionMode::BatchOnly) {
      batch_only.points.emplace_back(rec.state.x, rec.state.y);
    } else if (rec.mode == monitor::ExecutionMode::CoLocated) {
      colocated.points.emplace_back(rec.state.x, rec.state.y);
    }
  }
  PlotOptions opts;
  opts.title = "mapped space snapshot (Action status: False)";
  std::cout << plot_scatter({batch_only, colocated, violation}, opts) << "\n";

  std::cout << "co-location begins at period " << colocation_period
            << ", first violation at period " << first_violation_period
            << " -> transition took "
            << (first_violation_period - colocation_period)
            << " period(s): instantaneous, as the paper describes for CPU\n"
               "contention (\"sudden changes ... reducing the reaction time\").\n\n";
  std::cout << "violation states: " << space.violation_count() << " of "
            << space.size() << " representatives\n";
  std::cout << "CSV of states (x,y,label):\n";
  for (std::size_t i = 0; i < space.size(); ++i) {
    std::cout << format_double(space.position(i).x, 4) << ","
              << format_double(space.position(i).y, 4) << ","
              << (space.label(i) == core::StateLabel::Violation ? "violation"
                                                                : "safe")
              << "\n";
  }
  return 0;
}
