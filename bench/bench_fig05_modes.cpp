// Reproduces Figure 5: "All 4 execution modes when VLC streaming is
// co-located with Soplex from SPEC CPU 2006" — the lifecycle steps through
// idle -> sensitive-only -> co-located -> batch-only, each mode forming
// its own cluster with a distinct trajectory pattern, plus the step-length
// and angle distributions per mode.
#include <iostream>
#include <memory>

#include "apps/soplex.hpp"
#include "apps/vlc_stream.hpp"
#include "core/pipeline.hpp"
#include "harness/scenarios.hpp"
#include "stats/circular.hpp"
#include "util/ascii_plot.hpp"
#include "util/strings.hpp"

int main() {
  using namespace stayaway;

  std::cout << "=== Figure 5: execution modes, VLC streaming + Soplex ===\n\n";

  sim::SimHost host(harness::paper_host(), 0.1);
  apps::VlcStreamSpec vlc_spec;
  vlc_spec.duration_s = 100.0;  // finishes mid-run -> batch-only tail
  auto vlc = std::make_unique<apps::VlcStream>(vlc_spec);
  const sim::QosProbe* probe = vlc.get();
  host.add_vm("vlc", sim::VmKind::Sensitive, std::move(vlc), 5.0);

  apps::SoplexSpec sp_spec;
  sp_spec.total_work_s = 160.0;
  host.add_vm("soplex", sim::VmKind::Batch,
              std::make_unique<apps::Soplex>(sp_spec), 30.0);

  core::StayAwayConfig cfg;
  cfg.actions_enabled = false;  // observe the natural lifecycle
  core::HostPipeline pipeline(host, *probe, cfg);

  for (int period = 0; period < 260; ++period) {
    host.run(10);
    pipeline.on_period();
  }

  // Scatter: one glyph per execution mode.
  const char glyphs[] = {'.', 'B', 'S', '#'};
  std::vector<ScatterGroup> groups(4);
  for (std::size_t m = 0; m < 4; ++m) {
    groups[m].label = monitor::to_string(static_cast<monitor::ExecutionMode>(m));
    groups[m].glyph = glyphs[m];
  }
  for (const auto& rec : pipeline.records()) {
    groups[static_cast<std::size_t>(rec.mode)].points.emplace_back(rec.state.x,
                                                                   rec.state.y);
  }
  PlotOptions opts;
  opts.title = "mapped state space (2-D MDS of normalized usage vectors)";
  std::cout << plot_scatter(groups, opts) << "\n";

  // Per-mode trajectory statistics + distributions (the pdf panels).
  const core::ModeTrajectories& trajectories =
      pipeline.trajectory_forecaster()->trajectories();
  std::cout << "mode                steps  mean_step  angle_bias(resultant)\n";
  for (std::size_t m = 0; m < 4; ++m) {
    auto mode = static_cast<monitor::ExecutionMode>(m);
    const auto& model = trajectories.model(mode);
    if (model.observations() == 0) {
      std::cout << pad_right(monitor::to_string(mode), 20) << "0\n";
      continue;
    }
    const auto& steps = model.step_histogram();
    double mean_step = 0.0;
    for (std::size_t b = 0; b < steps.bins(); ++b) {
      mean_step += steps.mass(b) * steps.bin_center(b);
    }
    // Approximate angle concentration from the angle histogram.
    std::vector<double> angle_samples;
    const auto& angles = model.angle_histogram();
    for (std::size_t b = 0; b < angles.bins(); ++b) {
      auto copies = static_cast<std::size_t>(angles.count(b));
      for (std::size_t r = 0; r < copies; ++r) {
        angle_samples.push_back(angles.bin_center(b));
      }
    }
    double resultant = angle_samples.empty()
                           ? 0.0
                           : stats::circular_summary(angle_samples).resultant;
    std::cout << pad_right(monitor::to_string(mode), 20)
              << pad_right(std::to_string(model.observations()), 7)
              << pad_right(format_double(mean_step, 4), 11)
              << format_double(resultant, 3) << "\n";
  }

  std::cout << "\nstep-length densities per mode (histogram, normalized):\n";
  for (std::size_t m = 1; m < 4; ++m) {  // skip idle: trivial
    auto mode = static_cast<monitor::ExecutionMode>(m);
    const auto& model = trajectories.model(mode);
    if (model.observations() < 3) continue;
    std::vector<double> density;
    const auto& h = model.step_histogram();
    for (std::size_t b = 0; b < h.bins() / 2; ++b) density.push_back(h.density(b));
    PlotOptions p;
    p.title = std::string("pdf(step length) — ") + monitor::to_string(mode);
    p.height = 8;
    std::cout << plot_lines({density}, {"density"}, p) << "\n";
  }

  const core::StayAwayMapper& mapper = *pipeline.stay_away_mapper();
  std::cout << "representatives: " << mapper.representatives().size()
            << ", map stress: " << format_double(mapper.embedder().stress(), 4)
            << "\n";
  std::cout << "\nExpected shape (paper): soplex-only follows a consistent\n"
               "orientation (high resultant), co-located execution oscillates\n"
               "with bigger steps, VLC-only moves in short correlated bursts.\n";
  return 0;
}
