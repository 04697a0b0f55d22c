#include "obs/observer.hpp"

namespace stayaway::obs {

Span& Span::operator=(Span&& o) noexcept {
  close();
  obs_ = o.obs_;
  name_ = o.name_;
  sim_time_ = o.sim_time_;
  start_ = o.start_;
  o.obs_ = nullptr;
  return *this;
}

void Span::close() {
  if (obs_ == nullptr) return;
  auto elapsed = std::chrono::steady_clock::now() - start_;
  double us =
      std::chrono::duration<double, std::micro>(elapsed).count();
  obs_->record_span(name_, sim_time_, us);
  obs_ = nullptr;
}

Histogram& Observer::span_histogram(const char* name) {
  // References into the map stay valid across rehashes, so the returned
  // handle may be used after the lock is dropped.
  {
    util::MutexLock lock(span_mu_);
    auto it = span_hist_.find(name);
    if (it != span_hist_.end()) return it->second;
  }
  // Cache miss: create the handle with span_mu_ *released*. The registry
  // takes its own mutex inside histogram(); holding span_mu_ across that
  // call stacked the observer's two locks on every first-use path (the
  // double-lock the thread-safety annotations flagged). Racing first
  // uses of one name are benign: histogram() is get-or-create on the
  // same cell, and emplace keeps whichever entry landed first.
  // 1 us .. 10 s, 24 exponential buckets: covers sub-period phases up to
  // pathological full re-embeddings.
  Histogram h = metrics_.histogram(std::string("span.") + name + ".us",
                                   exponential_bounds(1.0, 1e7, 24));
  util::MutexLock lock(span_mu_);
  return span_hist_.emplace(name, h).first->second;
}

void Observer::record_span(const char* name, double sim_time, double us) {
  span_histogram(name).observe(us);
  if (sink_ != nullptr) {
    Event e(sim_time, "span");
    e.with("name", JsonValue(name)).with("us", JsonValue(us));
    sink_->emit(e);
  }
}

}  // namespace stayaway::obs
