#include "monitor/sample_source.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace stayaway::monitor {

namespace {

/// Delayed samples held back at once. Bounded so a saturated ingest-delay
/// window degrades into plain lateness instead of growing an unbounded
/// hold-back queue.
constexpr std::size_t kMaxHeld = 4;

/// Sim-seconds -> trace-seconds: how fast the replayed trace advances
/// relative to the control clock. One diurnal day (86400 trace-seconds)
/// per 300 simulated seconds.
constexpr double kTraceTimeScale = 288.0;

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  // Golden-ratio xor-mix, same family as fleet_host_seed: decorrelates
  // the ingest-anomaly stream from the value-noise stream.
  return (a ^ 0x9e3779b97f4a7c15ULL) + (b << 1);
}

/// Samples as three parallel fields: sequences, times and the flattened
/// value vectors.
template <typename Samples>
void persist_samples(util::StateIO& io, const std::string& key,
                     Samples& samples, std::size_t dimension) {
  std::vector<std::uint64_t> sequences;
  std::vector<double> times;
  std::vector<double> values;
  for (const TimedSample& s : samples) {
    sequences.push_back(s.sequence);
    times.push_back(s.measurement.time);
    values.insert(values.end(), s.measurement.values.begin(),
                  s.measurement.values.end());
  }
  io.u64s(key + "_sequence", sequences);
  io.reals(key + "_time", times);
  io.reals(key + "_values", values);
  if (!io.loading()) return;
  if (times.size() != sequences.size() ||
      values.size() != sequences.size() * dimension) {
    throw util::StateCodecError("ring source state: malformed " + key);
  }
  samples.resize(sequences.size());
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    TimedSample& s = samples[i];
    s.sequence = sequences[i];
    s.measurement.time = times[i];
    const auto first =
        values.begin() + static_cast<std::ptrdiff_t>(i * dimension);
    s.measurement.values.assign(
        first, first + static_cast<std::ptrdiff_t>(dimension));
  }
}

}  // namespace

DrainReport SynchronousSampleSource::drain(double now,
                                           std::vector<TimedSample>& out) {
  (void)now;  // the sampler stamps the host clock itself
  out.resize(1);
  TimedSample& s = out.front();
  s.sequence = next_sequence_++;
  sampler_.sample(s.measurement);
  DrainReport report;
  report.delivered = 1;
  return report;
}

void SynchronousSampleSource::persist(util::StateIO& io) {
  sampler_.persist(io);
  io.u64("next_sequence", next_sequence_);
}

RingSampleSource::RingSampleSource(MetricLayout layout,
                                   std::vector<double> scale,
                                   trace::Trace trace,
                                   const IngestConfig& config,
                                   double noise_fraction, std::uint64_t seed)
    : layout_(std::move(layout)),
      scale_(std::move(scale)),
      trace_(std::move(trace)),
      config_(config),
      noise_fraction_(noise_fraction),
      seed_(seed),
      capacity_(std::bit_ceil(config.ring_capacity)),
      value_rng_(seed),
      ingest_rng_(mix_seed(0, seed)) {
  SA_REQUIRE(layout_.dimension() > 0, "ring source needs a non-empty layout");
  SA_REQUIRE(scale_.size() == layout_.dimension(),
             "scale vector must match the layout dimension");
  SA_REQUIRE(config_.ring_capacity > 0, "ring capacity must be positive");
  SA_REQUIRE(config_.rate_hz > 0.0 && std::isfinite(config_.rate_hz),
             "ingest rate must be positive and finite");
  SA_REQUIRE(config_.lookahead_s >= 0.0, "lookahead must be non-negative");
  SA_REQUIRE(noise_fraction_ >= 0.0, "noise fraction must be non-negative");
  SA_REQUIRE(config_.burst_rate_hz >= 0.0 &&
                 std::isfinite(config_.burst_rate_hz),
             "burst rate must be non-negative and finite");
  if (config_.burst_rate_hz > 0.0) {
    SA_REQUIRE(config_.burst_end_s > config_.burst_start_s,
               "burst window must satisfy end > start");
  }
  // Per-dimension demand mix: each metric tracks the shared trace with
  // its own seed-derived weight, so dimensions are correlated (one
  // latent intensity) without being identical — the same premise the
  // host sampler's allocations follow.
  mix_.resize(layout_.dimension());
  for (double& w : mix_) w = 0.35 + 0.6 * value_rng_.uniform();
}

void RingSampleSource::set_fault_injector(sim::FaultInjector* injector) {
  SA_REQUIRE(next_sequence_ == 0,
             "the fault injector must be attached before the first sample");
  injector_ = injector;
  ingest_specs_.clear();
  ingest_rng_ =
      Rng(mix_seed(injector != nullptr ? injector->plan().seed : 0, seed_));
  if (injector == nullptr) return;
  for (const sim::FaultSpec& f : injector->plan().faults) {
    if (f.kind == sim::FaultKind::IngestDelay ||
        f.kind == sim::FaultKind::IngestDuplicate) {
      ingest_specs_.push_back(f);
    }
  }
}

double RingSampleSource::interval_at(double t) const {
  double rate = config_.rate_hz;
  if (config_.burst_rate_hz > 0.0 && t >= config_.burst_start_s &&
      t < config_.burst_end_s) {
    rate = config_.burst_rate_hz;
  }
  return 1.0 / rate;
}

Measurement RingSampleSource::synthesize(double t) {
  Measurement m;
  m.time = t;
  const double span = trace_.duration();
  const double tt =
      span > 0.0 ? std::fmod(t * kTraceTimeScale, span) : 0.0;
  const double intensity = trace_.normalized_at(tt);
  m.values.resize(layout_.dimension());
  for (std::size_t d = 0; d < m.values.size(); ++d) {
    double v = scale_[d] * mix_[d] * intensity;
    v *= 1.0 + value_rng_.normal(0.0, noise_fraction_);
    m.values[d] = std::max(0.0, v);
  }
  return m;
}

void RingSampleSource::emit(TimedSample sample) {
  // Never blocks on backpressure: the drop is counted and the consumer
  // surfaces it in the period's ingest telemetry.
  if (ring_.size() >= capacity_) {
    ++overflow_total_;
    return;
  }
  ring_.push_back(std::move(sample));
}

DrainReport RingSampleSource::drain(double now,
                                    std::vector<TimedSample>& out) {
  out.clear();
  DrainReport report;
  const std::uint64_t overflow_before = overflow_total_;
  // Generate up to the lookahead horizon. Samples an ingest-delay holds
  // back are released behind newer ones (the late/out-of-order anomaly)
  // and at the latest when generation stops, so none outlive the drain.
  std::vector<TimedSample> held;
  const double horizon = now + config_.lookahead_s;
  while (next_time_ <= horizon) {
    TimedSample s;
    s.sequence = next_sequence_++;
    s.measurement = synthesize(next_time_);
    bool delayed = false;
    bool duplicated = false;
    for (const sim::FaultSpec& f : ingest_specs_) {
      if (!f.active(next_time_)) continue;
      if (f.kind == sim::FaultKind::IngestDelay &&
          ingest_rng_.chance(f.probability)) {
        delayed = true;
      } else if (f.kind == sim::FaultKind::IngestDuplicate &&
                 ingest_rng_.chance(f.probability)) {
        duplicated = true;
      }
    }
    if (delayed && held.size() < kMaxHeld) {
      held.push_back(std::move(s));
    } else {
      TimedSample copy;
      if (duplicated) copy = s;  // same sequence: the quarantine drops it
      emit(std::move(s));
      if (duplicated) emit(std::move(copy));
      for (TimedSample& h : held) emit(std::move(h));
      held.clear();
    }
    // An interval below the horizon's resolution would stall the clock
    // (or crawl toward the horizon for ~2^53 emissions).
    const double interval = interval_at(next_time_);
    SA_REQUIRE(horizon + interval > horizon,
               "ingest rate too high to advance the stream clock");
    next_time_ += interval;
  }
  for (TimedSample& h : held) emit(std::move(h));

  auto deliver = [&](TimedSample s) {
    if (injector_ != nullptr) {
      injector_->corrupt_sample(s.measurement.time, s.measurement.values);
    }
    out.push_back(std::move(s));
    ++report.delivered;
    ++delivered_total_;
  };
  if (pending_.has_value() && pending_->measurement.time <= now) {
    deliver(std::move(*pending_));
    pending_.reset();
  }
  if (!pending_.has_value()) {
    while (!ring_.empty()) {
      TimedSample s = std::move(ring_.front());
      ring_.pop_front();
      if (s.measurement.time > now) {
        pending_ = std::move(s);
        break;
      }
      deliver(std::move(s));
    }
  }
  report.overflow = static_cast<std::size_t>(overflow_total_ - overflow_before);
  return report;
}

void RingSampleSource::persist(util::StateIO& io) {
  io.rng("ring_value_rng", value_rng_);
  io.rng("ring_ingest_rng", ingest_rng_);
  io.real("ring_next_time", next_time_);
  io.u64("ring_next_sequence", next_sequence_);
  persist_samples(io, "ring_queued", ring_, layout_.dimension());
  if (io.loading() && ring_.size() > capacity_) {
    throw util::StateCodecError("ring source state: queue over capacity");
  }
  std::vector<TimedSample> pending;
  if (pending_.has_value()) pending.push_back(*pending_);
  persist_samples(io, "ring_pending", pending, layout_.dimension());
  if (io.loading()) {
    if (pending.size() > 1) {
      throw util::StateCodecError("ring source state: more than one pending");
    }
    pending_.reset();
    if (!pending.empty()) pending_ = std::move(pending.front());
  }
  io.u64("ring_delivered_total", delivered_total_);
  io.u64("ring_overflow_total", overflow_total_);
}

}  // namespace stayaway::monitor
