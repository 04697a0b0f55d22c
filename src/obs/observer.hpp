// Observer: the single attachment point the control loop is instrumented
// against. Bundles a MetricsRegistry with an optional EventSink and hands
// out period-scoped RAII Span timers for the loop phases.
//
// The observer is strictly passive — nothing the instrumented code reads
// back from it may influence a control decision — so enabling or
// disabling observability leaves the emitted PeriodRecord sequence
// identical (pinned by test_runtime's equivalence test).
#pragma once

#include <chrono>
#include <string>
#include <unordered_map>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "util/sync.hpp"

namespace stayaway::obs {

class Observer;

/// RAII wall-clock timer over one named phase of a period. On close (or
/// destruction) it records the elapsed microseconds into the histogram
/// "span.<name>.us" and, when a sink is attached, emits a
/// {"type":"span","name":...,"us":...} event stamped with the simulated
/// time the span was opened at. A default-constructed Span is a no-op,
/// so call sites do not branch on whether an observer is attached.
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& o) noexcept { *this = std::move(o); }
  Span& operator=(Span&& o) noexcept;
  ~Span() { close(); }

  /// Records and emits now instead of at destruction; idempotent.
  void close();

 private:
  friend class Observer;
  Span(Observer* obs, const char* name, double sim_time)
      : obs_(obs),
        name_(name),
        sim_time_(sim_time),
        start_(std::chrono::steady_clock::now()) {}

  Observer* obs_ = nullptr;  // nullptr = closed or disabled
  const char* name_ = nullptr;
  double sim_time_ = 0.0;
  std::chrono::steady_clock::time_point start_{};
};

class Observer {
 public:
  Observer() = default;
  explicit Observer(EventSink* sink) : sink_(sink) {}

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  EventSink* sink() const { return sink_; }
  void set_sink(EventSink* sink) { sink_ = sink; }

  /// Opens a phase timer. `name` must outlive the observer (string
  /// literals in practice).
  Span span(const char* name, double sim_time) {
    return Span(this, name, sim_time);
  }

  /// Forwards to the sink when one is attached.
  void emit(const Event& e) {
    if (sink_ != nullptr) sink_->emit(e);
  }
  void flush() {
    if (sink_ != nullptr) sink_->flush();
  }

 private:
  friend class Span;
  void record_span(const char* name, double sim_time, double us);
  Histogram& span_histogram(const char* name) SA_EXCLUDES(span_mu_);

  // sa-lint: unguarded(internally synchronized: the registry serializes
  // registration on its own mutex and the handles update atomic cells)
  MetricsRegistry metrics_;
  // sa-lint: unguarded(wiring-time configuration: set before any
  // concurrent phase runs; sinks serialize emit/flush themselves)
  EventSink* sink_ = nullptr;
  /// Handle cache so per-period spans take one short lock instead of the
  /// registry's name lookup. Guarded by span_mu_: an observer may be
  /// shared by the concurrent host pipelines of a fleet, whose phase
  /// spans share names — the histograms then aggregate wall-clock phase
  /// timings fleet-wide (the handles' atomic updates make that safe).
  /// span_mu_ is never held across the registry's own lock (see
  /// span_histogram), so the observer's two locks cannot nest.
  util::Mutex span_mu_;
  std::unordered_map<std::string, Histogram> span_hist_
      SA_GUARDED_BY(span_mu_);
};

}  // namespace stayaway::obs
