// Shared helpers for the figure-reproduction bench binaries.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/fleet.hpp"
#include "harness/report.hpp"
#include "harness/scenarios.hpp"
#include "util/ascii_plot.hpp"
#include "util/strings.hpp"

namespace stayaway::bench {

/// Standard experiment shape shared by the QoS figures: batch arrives
/// shortly after the sensitive app, several compressed diurnal cycles.
inline harness::ExperimentSpec figure_spec(harness::SensitiveKind sensitive,
                                           harness::BatchKind batch,
                                           double duration_s = 300.0,
                                           std::uint64_t seed = 99) {
  harness::ExperimentSpec spec;
  spec.sensitive = sensitive;
  spec.batch = batch;
  spec.policy = harness::PolicyKind::StayAway;
  spec.duration_s = duration_s;
  spec.sensitive_start_s = 2.0;
  spec.batch_start_s = 15.0;
  spec.seed = seed;
  return spec;
}

/// figure_spec plus the compressed diurnal workload the QoS figures
/// share; the workload seed is independent of the experiment seed.
inline harness::ExperimentSpec diurnal_figure_spec(
    harness::SensitiveKind sensitive, harness::BatchKind batch,
    std::uint64_t workload_seed, double duration_s = 300.0,
    std::uint64_t seed = 99) {
  auto spec = figure_spec(sensitive, batch, duration_s, seed);
  spec.workload =
      harness::compressed_diurnal(duration_s, /*cycles=*/1.5, workload_seed);
  return spec;
}

/// Runs the with/without/isolated triple every QoS figure needs.
struct FigureRuns {
  harness::ExperimentResult stay_away;
  harness::ExperimentResult no_prevention;
  harness::ExperimentResult isolated;
};

/// The figure triple as a three-host fleet: the spec itself, the same
/// co-location without prevention, and the sensitive app isolated.
inline harness::FleetSpec figure_fleet(const harness::ExperimentSpec& spec) {
  harness::FleetSpec fleet;
  fleet.hosts.push_back({"stay-away", spec});
  auto np = spec;
  np.policy = harness::PolicyKind::NoPrevention;
  np.seed_template.reset();
  fleet.hosts.push_back({"no-prevention", std::move(np)});
  // Mirrors run_isolated: batch off, no policy; extra VMs (if any) stay,
  // matching the historical reference runs.
  auto iso = spec;
  iso.batch = harness::BatchKind::None;
  iso.policy = harness::PolicyKind::NoPrevention;
  fleet.hosts.push_back({"isolated", std::move(iso)});
  return fleet;
}

inline FigureRuns run_figure(const harness::ExperimentSpec& spec) {
  harness::FleetResult fleet = harness::run_fleet(figure_fleet(spec));
  FigureRuns out;
  out.stay_away = std::move(fleet.hosts[0].result);
  out.no_prevention = std::move(fleet.hosts[1].result);
  out.isolated = std::move(fleet.hosts[2].result);
  return out;
}

/// Prints the standard QoS-figure block: plot, CSV series, summary rows.
inline void print_qos_figure(const std::string& title, const FigureRuns& runs) {
  std::cout << "=== " << title << " ===\n\n";
  std::cout << harness::render_qos_figure(
                   "normalized QoS over time (1.0 = threshold)",
                   runs.stay_away, runs.no_prevention)
            << "\n";
  harness::print_summary_header(std::cout);
  harness::print_summary_row(std::cout, "stay-away", runs.stay_away);
  harness::print_summary_row(std::cout, "no-prevention", runs.no_prevention);
  harness::print_summary_row(std::cout, "isolated", runs.isolated);

  double gain_sa = harness::series_mean(
      harness::gained_utilization(runs.stay_away, runs.isolated));
  double gain_np = harness::series_mean(
      harness::gained_utilization(runs.no_prevention, runs.isolated));
  std::cout << "\ngained utilization: stay-away "
            << format_double(gain_sa * 100.0, 1) << "% | no-prevention (max) "
            << format_double(gain_np * 100.0, 1) << "%\n";
  std::cout << "violating periods: stay-away "
            << runs.stay_away.violation_periods << " / no-prevention "
            << runs.no_prevention.violation_periods << "\n\n";
  std::cout << "series CSV (one row per series):\n";
  harness::print_series_csv(
      std::cout, {"time", "qos_stayaway", "qos_noprev", "util_stayaway",
                  "util_noprev", "util_isolated"},
      {&runs.stay_away.time, &runs.stay_away.qos, &runs.no_prevention.qos,
       &runs.stay_away.utilization, &runs.no_prevention.utilization,
       &runs.isolated.utilization});
}

/// Prints a gained-utilization figure (paper Figs. 10/11 shape): the upper
/// band is the unsafe maximum, the lower band what Stay-Away recovers.
inline void print_gain_figure(const std::string& title, const FigureRuns& runs) {
  std::cout << "=== " << title << " ===\n\n";
  auto upper = harness::gained_utilization(runs.no_prevention, runs.isolated);
  auto lower = harness::gained_utilization(runs.stay_away, runs.isolated);
  PlotOptions opts;
  opts.title = "gained utilization over time";
  std::cout << plot_lines({upper, lower}, {"no-prevention (upper band)",
                                           "stay-away (lower band)"},
                          opts)
            << "\n";
  std::cout << "mean gained utilization: no-prevention "
            << format_double(harness::series_mean(upper) * 100.0, 1)
            << "% | stay-away "
            << format_double(harness::series_mean(lower) * 100.0, 1) << "%\n";
  std::cout << "violating periods: stay-away "
            << runs.stay_away.violation_periods << " / no-prevention "
            << runs.no_prevention.violation_periods << "\n\n";
  std::cout << "series CSV:\n";
  harness::print_series_csv(std::cout,
                            {"time", "gain_noprev", "gain_stayaway"},
                            {&runs.stay_away.time, &upper, &lower});
}

/// Offline evaluation data for the ablation benches: a passive run's
/// period records plus the final labelled geometry of its state space.
struct OfflineData {
  std::vector<core::PeriodRecord> records;
  core::StateSpace space;                        // final labels + positions
  std::vector<std::vector<double>> rep_vectors;  // normalized representatives
};

inline OfflineData passive_run(harness::ExperimentSpec spec) {
  spec.policy = harness::PolicyKind::StayAway;
  spec.stayaway.actions_enabled = false;
  harness::ExperimentResult run = harness::run_experiment(spec);

  OfflineData data;
  data.records = run.stayaway_records;
  const auto& templ = *run.exported_template;
  for (const auto& entry : templ.entries) {
    data.space.add_state(entry.label);
    data.rep_vectors.push_back(entry.vector);
  }
  data.space.sync_positions(run.final_map);
  return data;
}

/// Binary-forecast tallies for the offline evaluators.
struct OfflineTally {
  std::size_t tp = 0, fp = 0, tn = 0, fn = 0;
  std::size_t total() const { return tp + fp + tn + fn; }
  double accuracy() const {
    return total() ? static_cast<double>(tp + tn) / static_cast<double>(total())
                   : 0.0;
  }
  double recall() const {
    return (tp + fn) ? static_cast<double>(tp) / static_cast<double>(tp + fn)
                     : 0.0;
  }
  double false_positive_rate() const {
    return (fp + tn) ? static_cast<double>(fp) / static_cast<double>(fp + tn)
                     : 0.0;
  }
  void score(bool predicted, bool actual) {
    if (predicted && actual) ++tp;
    if (predicted && !actual) ++fp;
    if (!predicted && actual) ++fn;
    if (!predicted && !actual) ++tn;
  }
};

/// Figures 14-16 share one shape: per-batch-app QoS panels of a Webservice
/// workload mix, Stay-Away vs no-prevention.
inline void print_webservice_qos_figure(harness::SensitiveKind kind,
                                        const std::string& title,
                                        std::uint64_t seed) {
  std::cout << "=== " << title << " ===\n\n";
  harness::print_summary_header(std::cout);

  const std::vector<harness::BatchKind> batches{
      harness::BatchKind::Soplex, harness::BatchKind::TwitterAnalysis,
      harness::BatchKind::MemBomb, harness::BatchKind::Batch1,
      harness::BatchKind::Batch2};
  std::vector<FigureRuns> all;
  for (auto b : batches) {
    auto spec = figure_spec(kind, b, /*duration_s=*/240.0,
                            seed + static_cast<std::uint64_t>(b));
    spec.workload = harness::compressed_diurnal(spec.duration_s, 1.5, seed);
    FigureRuns runs = run_figure(spec);
    harness::print_summary_row(
        std::cout, std::string(to_string(b)) + " (stay-away)", runs.stay_away);
    harness::print_summary_row(std::cout,
                               std::string(to_string(b)) + " (no-prevention)",
                               runs.no_prevention);
    all.push_back(std::move(runs));
  }
  std::cout << "\n";
  for (std::size_t i = 0; i < batches.size(); ++i) {
    PlotOptions opts;
    opts.width = 72;
    opts.height = 10;
    opts.title = std::string("QoS vs time — ") + to_string(batches[i]);
    std::cout << plot_lines(
                     {all[i].stay_away.qos, all[i].no_prevention.qos,
                      std::vector<double>(all[i].stay_away.qos.size(), 1.0)},
                     {"stay-away", "no-prevention", "threshold"}, opts)
              << "\n";
  }
}

}  // namespace stayaway::bench
