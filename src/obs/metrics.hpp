// Lock-cheap metrics registry: named counters, gauges and fixed-bucket
// histograms for the control loop's observability layer.
//
// Registration (name -> cell) takes a mutex; the returned handles update
// their cells with relaxed atomics only, so instrumented hot paths pay a
// few uncontended atomic ops per period and never block each other.
// Handles stay valid for the registry's lifetime (cells live in deques
// that never relocate). A default-constructed handle is disabled: every
// operation is a no-op, which lets instrumented code run unconditionally
// whether or not observability is attached.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.hpp"

namespace stayaway::obs {

class MetricsRegistry;

/// Monotonic event count.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) {
    if (cell_ != nullptr) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return cell_ != nullptr ? cell_->load(std::memory_order_relaxed) : 0;
  }
  // sa-lint: test-observer(tests check a default handle is a no-op)
  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::atomic<std::uint64_t>* cell) : cell_(cell) {}
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  Gauge() = default;
  void set(double v) {
    if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
  }
  double value() const {
    return cell_ != nullptr ? cell_->load(std::memory_order_relaxed) : 0.0;
  }
  // sa-lint: test-observer(tests check a default handle is a no-op)
  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<double>* cell) : cell_(cell) {}
  std::atomic<double>* cell_ = nullptr;
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i], the
/// final implicit bucket counts the overflow. Also tracks count and sum so
/// means survive bucket quantization.
class Histogram {
 public:
  Histogram() = default;
  void observe(double v);
  std::uint64_t count() const;
  double sum() const;
  double mean() const;
  // sa-lint: test-observer(tests check a default handle is a no-op)
  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  struct Cell {
    std::vector<double> bounds;                    // ascending upper bounds
    std::deque<std::atomic<std::uint64_t>> buckets;  // bounds.size() + 1
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };
  explicit Histogram(Cell* cell) : cell_(cell) {}
  Cell* cell_ = nullptr;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Ascending exponential bucket bounds from `lo` to `hi` (inclusive),
/// `n` buckets — the standard latency layout.
std::vector<double> exponential_bounds(double lo, double hi, std::size_t n);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create by name. Re-registering an existing name returns a
  /// handle to the same cell (histogram bounds must then match).
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name, std::vector<double> bounds);

  /// Point-in-time copy of every metric, names sorted per kind.
  MetricsSnapshot snapshot() const;

  /// Serializes the snapshot as one JSON object:
  ///   {"counters":{...},"gauges":{...},"histograms":{name:{...}}}
  void write_json(std::ostream& out) const;

 private:
  template <typename T>
  struct Named {
    std::string name;
    T cell;
  };

  // The deque *structure* (registration) is guarded; the atomic cells
  // inside are updated lock-free through the handed-out handles.
  mutable util::Mutex mu_;
  std::deque<Named<std::atomic<std::uint64_t>>> counters_ SA_GUARDED_BY(mu_);
  std::deque<Named<std::atomic<double>>> gauges_ SA_GUARDED_BY(mu_);
  std::deque<Named<Histogram::Cell>> histograms_ SA_GUARDED_BY(mu_);
};

}  // namespace stayaway::obs
