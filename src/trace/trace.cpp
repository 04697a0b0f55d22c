#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/csv.hpp"

namespace stayaway::trace {

Trace::Trace(std::vector<double> samples, double sample_interval_s)
    : samples_(std::move(samples)), interval_(sample_interval_s) {
  SA_REQUIRE(!samples_.empty(), "trace needs at least one sample");
  SA_REQUIRE(interval_ > 0.0, "sample interval must be positive");
  min_ = *std::min_element(samples_.begin(), samples_.end());
  max_ = *std::max_element(samples_.begin(), samples_.end());
}

double Trace::duration() const {
  return static_cast<double>(samples_.size() - 1) * interval_;
}

double Trace::at(double t) const {
  if (t <= 0.0) return samples_.front();
  double pos = t / interval_;
  auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= samples_.size()) return samples_.back();
  double frac = pos - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[lo + 1] - samples_[lo]);
}

double Trace::normalized_at(double t) const {
  double span = max() - min();
  if (span <= 0.0) return 0.0;
  return (at(t) - min()) / span;
}

double Trace::mean() const {
  double acc = 0.0;
  for (double s : samples_) acc += s;
  return acc / static_cast<double>(samples_.size());
}

Trace Trace::rescaled(double lo, double hi) const {
  SA_REQUIRE(lo <= hi, "rescale bounds must be ordered");
  double cur_lo = min();
  double span = max() - cur_lo;
  std::vector<double> out;
  out.reserve(samples_.size());
  for (double s : samples_) {
    double frac = (span > 0.0) ? (s - cur_lo) / span : 0.0;
    out.push_back(lo + frac * (hi - lo));
  }
  return Trace(std::move(out), interval_);
}

void Trace::save_csv(std::ostream& out) const {
  CsvWriter w(out);
  w.header({"time_s", "value"});
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    w.row(std::vector<double>{static_cast<double>(i) * interval_, samples_[i]});
  }
}

Trace Trace::load_csv(std::istream& in) {
  auto rows = parse_csv(in);
  SA_REQUIRE(rows.size() >= 3, "trace CSV needs a header and two samples");
  std::vector<double> samples;
  samples.reserve(rows.size() - 1);
  double t0 = 0.0;
  double t1 = 0.0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    auto vals = csv_row_to_doubles(rows[i]);
    SA_REQUIRE(vals.size() == 2, "trace CSV rows must be (time, value)");
    if (i == 1) t0 = vals[0];
    if (i == 2) t1 = vals[0];
    samples.push_back(vals[1]);
  }
  double interval = t1 - t0;
  SA_REQUIRE(interval > 0.0, "trace CSV times must increase");
  return Trace(std::move(samples), interval);
}

}  // namespace stayaway::trace
