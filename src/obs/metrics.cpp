#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace stayaway::obs {

void Histogram::observe(double v) {
  if (cell_ == nullptr) return;
  auto it = std::lower_bound(cell_->bounds.begin(), cell_->bounds.end(), v);
  auto idx = static_cast<std::size_t>(it - cell_->bounds.begin());
  cell_->buckets[idx].fetch_add(1, std::memory_order_relaxed);
  cell_->count.fetch_add(1, std::memory_order_relaxed);
  cell_->sum.fetch_add(v, std::memory_order_relaxed);
}

std::vector<double> exponential_bounds(double lo, double hi, std::size_t n) {
  SA_REQUIRE(lo > 0.0 && hi > lo, "bounds need 0 < lo < hi");
  SA_REQUIRE(n >= 2, "need at least two buckets");
  std::vector<double> out(n);
  double step = std::pow(hi / lo, 1.0 / static_cast<double>(n - 1));
  double v = lo;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = v;
    v *= step;
  }
  out.back() = hi;  // cancel accumulated rounding
  return out;
}

Counter MetricsRegistry::counter(std::string_view name) {
  util::MutexLock lock(mu_);
  for (auto& c : counters_) {
    if (c.name == name) return Counter(&c.cell);
  }
  counters_.emplace_back();  // in place: the atomic cell is not movable
  counters_.back().name = std::string(name);
  return Counter(&counters_.back().cell);
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  util::MutexLock lock(mu_);
  for (auto& g : gauges_) {
    if (g.name == name) return Gauge(&g.cell);
  }
  gauges_.emplace_back();
  gauges_.back().name = std::string(name);
  return Gauge(&gauges_.back().cell);
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::vector<double> bounds) {
  SA_REQUIRE(!bounds.empty(), "histogram needs at least one bucket bound");
  SA_REQUIRE(std::is_sorted(bounds.begin(), bounds.end()),
             "histogram bounds must be ascending");
  util::MutexLock lock(mu_);
  for (auto& h : histograms_) {
    if (h.name == name) {
      SA_REQUIRE(h.cell.bounds == bounds,
                 "histogram re-registered with different bounds");
      return Histogram(&h.cell);
    }
  }
  histograms_.emplace_back();
  auto& named = histograms_.back();
  named.name = std::string(name);
  named.cell.bounds = std::move(bounds);
  // deque of atomics: emplace one by one (atomics are not copyable).
  for (std::size_t i = 0; i <= named.cell.bounds.size(); ++i) {
    named.cell.buckets.emplace_back(0);
  }
  return Histogram(&named.cell);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  {
    util::MutexLock lock(mu_);
    for (const auto& c : counters_) {
      snap.counters.emplace_back(c.name,
                                 c.cell.load(std::memory_order_relaxed));
    }
    for (const auto& g : gauges_) {
      snap.gauges.emplace_back(g.name, g.cell.load(std::memory_order_relaxed));
    }
    for (const auto& h : histograms_) {
      HistogramSnapshot hs;
      hs.name = h.name;
      hs.bounds = h.cell.bounds;
      for (const auto& b : h.cell.buckets) {
        hs.buckets.push_back(b.load(std::memory_order_relaxed));
      }
      hs.count = h.cell.count.load(std::memory_order_relaxed);
      hs.sum = h.cell.sum.load(std::memory_order_relaxed);
      snap.histograms.push_back(std::move(hs));
    }
  }
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  MetricsSnapshot snap = snapshot();
  JsonValue counters = JsonValue::object();
  for (const auto& [name, v] : snap.counters) counters.set(name, JsonValue(v));
  JsonValue gauges = JsonValue::object();
  for (const auto& [name, v] : snap.gauges) gauges.set(name, JsonValue(v));
  JsonValue histograms = JsonValue::object();
  for (const auto& h : snap.histograms) {
    JsonValue entry = JsonValue::object();
    JsonValue bounds = JsonValue::array();
    for (double b : h.bounds) bounds.push_back(JsonValue(b));
    JsonValue buckets = JsonValue::array();
    for (std::uint64_t b : h.buckets) buckets.push_back(JsonValue(b));
    entry.set("bounds", std::move(bounds));
    entry.set("buckets", std::move(buckets));
    entry.set("count", JsonValue(h.count));
    entry.set("sum", JsonValue(h.sum));
    histograms.set(h.name, std::move(entry));
  }
  JsonValue root = JsonValue::object();
  root.set("counters", std::move(counters));
  root.set("gauges", std::move(gauges));
  root.set("histograms", std::move(histograms));
  root.dump(out);
  out << "\n";
}

}  // namespace stayaway::obs
