// Reporting helpers shared by the bench binaries: CSV series dumps,
// summary rows and ASCII renderings of the paper's figure shapes.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/metrics.hpp"

namespace stayaway::harness {

/// Prints "name,v0,v1,..." rows for aligned series.
void print_series_csv(std::ostream& out, const std::vector<std::string>& names,
                      const std::vector<const std::vector<double>*>& series);

/// One summary line per experiment: QoS violations, utilization, actions.
void print_summary_row(std::ostream& out, const std::string& label,
                       const ExperimentResult& result);
void print_summary_header(std::ostream& out);

/// Renders a QoS-vs-threshold figure (paper Figs. 8/9/14-16 shape).
std::string render_qos_figure(const std::string& title,
                              const ExperimentResult& with,
                              const ExperimentResult& without);

/// Mean of a series (0 for empty).
double series_mean(const std::vector<double>& xs);

/// Human-readable dump of a metrics registry: counters, gauges, and span
/// histograms (count/mean), sorted by name.
void print_metrics_summary(std::ostream& out,
                           const obs::MetricsRegistry& registry);

}  // namespace stayaway::harness
