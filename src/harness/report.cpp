#include "harness/report.hpp"

#include <ostream>

#include "util/ascii_plot.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace stayaway::harness {

void print_series_csv(std::ostream& out, const std::vector<std::string>& names,
                      const std::vector<const std::vector<double>*>& series) {
  SA_REQUIRE(names.size() == series.size(), "one name per series");
  CsvWriter w(out);
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::vector<std::string> cells{names[i]};
    for (double v : *series[i]) cells.push_back(format_double(v, 4));
    w.row(cells);
  }
}

void print_summary_header(std::ostream& out) {
  out << pad_right("experiment", 40) << pad_left("viol%", 8)
      << pad_left("avg_qos", 9) << pad_left("avg_util", 10)
      << pad_left("batch_cpu_s", 13) << pad_left("pauses", 8)
      << pad_left("reps", 6) << "\n";
}

void print_summary_row(std::ostream& out, const std::string& label,
                       const ExperimentResult& result) {
  out << pad_right(label, 40)
      << pad_left(format_double(result.violation_fraction * 100.0, 1), 8)
      << pad_left(format_double(result.avg_qos, 3), 9)
      << pad_left(format_double(result.avg_utilization * 100.0, 1), 10)
      << pad_left(format_double(result.batch_cpu_work, 1), 13)
      << pad_left(std::to_string(result.pauses), 8)
      << pad_left(std::to_string(result.representative_count), 6) << "\n";
}

std::string render_qos_figure(const std::string& title,
                              const ExperimentResult& with,
                              const ExperimentResult& without) {
  std::vector<double> threshold(with.qos.size(), 1.0);
  PlotOptions opts;
  opts.title = title;
  return plot_lines({with.qos, without.qos, threshold},
                    {"stay-away", "no-prevention", "threshold"}, opts);
}

double series_mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double v : xs) acc += v;
  return acc / static_cast<double>(xs.size());
}

void print_metrics_summary(std::ostream& out,
                           const obs::MetricsRegistry& registry) {
  obs::MetricsSnapshot snap = registry.snapshot();
  if (!snap.counters.empty()) {
    out << "counters:\n";
    for (const auto& [name, v] : snap.counters) {
      out << "  " << pad_right(name, 40) << v << "\n";
    }
  }
  if (!snap.gauges.empty()) {
    out << "gauges:\n";
    for (const auto& [name, v] : snap.gauges) {
      out << "  " << pad_right(name, 40) << format_double(v, 4) << "\n";
    }
  }
  if (!snap.histograms.empty()) {
    out << "histograms (count / mean):\n";
    for (const auto& h : snap.histograms) {
      double mean =
          h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
      out << "  " << pad_right(h.name, 40) << h.count << " / "
          << format_double(mean, 3) << "\n";
    }
  }
}

}  // namespace stayaway::harness
