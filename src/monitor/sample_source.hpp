// SampleSource: the ingestion seam of the mapping stage (DESIGN.md §15).
//
// The control loop historically made one synchronous Sampler::sample()
// call per period, which caps ingestion at one sample per control
// decision. SampleSource abstracts where samples come from so the
// pipeline can drain *streams*:
//
//   SynchronousSampleSource  wraps HostSampler; drain() takes exactly
//                            one sample — byte-identical to the
//                            historical loop (golden tests).
//   RingSampleSource         replays a trace into a bounded per-host
//                            ring at a configured rate; drain() pops
//                            every sample due by `now`. Overflow (full
//                            ring) is counted, never blocking; late/
//                            out-of-order/duplicate anomalies are
//                            injected from the fault plan's ingest-delay
//                            / ingest-dup cases and classified
//                            downstream by SampleQuarantine.
//
// Determinism contract (what record/replay and checkpoints rest on):
// drain(now) first generates every sample up to now + lookahead, then
// pops the due ones, all on the caller's thread. Every push therefore
// sees a ring occupancy fixed by previous drains, so the sample stream —
// including every overflow drop — is a pure function of the seed, the
// config and the drain clock, and its whole state can be snapshotted at
// a period boundary.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "monitor/measurement.hpp"
#include "monitor/sampler.hpp"
#include "sim/faults.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/statecodec.hpp"

namespace stayaway::monitor {

/// Where the control loop's samples come from (DESIGN.md §15).
enum class IngestSource {
  Synchronous,  // one Sampler::sample() per period — the historical,
                // byte-identical default
  Ring,         // each drain replays a trace into a bounded per-host
                // ring up to a lookahead and pops the due samples
};

/// Unified ingestion surface: the synchronous sampler, trace replay and
/// the ring feed all construct from this one block inside
/// core::StayAwayConfig. Scenario-file keys: ingest_source,
/// ingest_rate_hz, ingest_ring_capacity, ingest_lookahead_s,
/// ingest_burst_rate_hz, ingest_burst_start_s, ingest_burst_end_s
/// (serialized only when the block differs from the defaults, so
/// historical run-logs stay byte-identical).
struct IngestConfig {
  IngestSource source = IngestSource::Synchronous;
  /// Emission rate in samples per simulated second (Ring only).
  double rate_hz = 4.0;
  /// Ring capacity in samples (rounded up to a power of two). A full
  /// ring drops the push and counts the overflow — backpressure is
  /// surfaced, never silently absorbed.
  std::size_t ring_capacity = 1024;
  /// How far past the drain clock each drain generates, in simulated
  /// seconds. Samples inside the lookahead wait in the ring until their
  /// period.
  double lookahead_s = 0.25;
  /// Optional burst window: within [burst_start_s, burst_end_s) the
  /// ring emits at burst_rate_hz instead of rate_hz. 0 disables the
  /// burst. This is the window the fuzzer's shrinker minimizes.
  double burst_rate_hz = 0.0;
  double burst_start_s = 0.0;
  double burst_end_s = 0.0;

  bool streaming() const { return source == IngestSource::Ring; }
  bool operator==(const IngestConfig&) const = default;
};

/// One streamed measurement. `sequence` is the source's emission
/// index; a duplicated delivery reuses its original's sequence, which is
/// how the quarantine recognizes it.
struct TimedSample {
  std::uint64_t sequence = 0;
  Measurement measurement;
};

/// What one drain() delivered and dropped.
struct DrainReport {
  /// Samples in the caller's buffer.
  std::size_t delivered = 0;
  /// Emissions this drain rejected because the ring was full.
  std::size_t overflow = 0;
};

class SampleSource {
 public:
  virtual ~SampleSource() = default;

  virtual const MetricLayout& layout() const = 0;

  /// True for asynchronous implementations. The mapper only fills the
  /// PeriodRecord's ingest telemetry for streaming sources, so the
  /// synchronous record stream stays byte-identical to the historical
  /// format.
  virtual bool streaming() const = 0;

  /// Replaces `out`'s contents with every sample due by `now`, in
  /// arrival order. Implementations may reuse out's elements (and their
  /// value storage) instead of reallocating them.
  virtual DrainReport drain(double now, std::vector<TimedSample>& out) = 0;

  /// Attaches (or detaches, with nullptr) the pipeline's fault injector.
  /// Sensor faults apply to every delivered sample; a streaming source
  /// additionally reads the plan's ingest-delay / ingest-dup specs.
  /// Must be called before the first drain().
  virtual void set_fault_injector(sim::FaultInjector* injector) = 0;

  /// Samples delivered across the source's lifetime (observability).
  virtual std::uint64_t samples_taken() const = 0;

  /// Checkpoint support (DESIGN.md §17): everything drain() mutates.
  /// A load targets a freshly built source with the same options and
  /// fault injector attached.
  virtual void persist(util::StateIO& io) = 0;
};

/// The historical path: one HostSampler reading per drain, taken in
/// place into out[0]. Exists so every caller speaks SampleSource while
/// the default configuration stays byte-identical to the pre-streaming
/// loop.
class SynchronousSampleSource final : public SampleSource {
 public:
  explicit SynchronousSampleSource(HostSampler sampler)
      : sampler_(std::move(sampler)) {}

  const MetricLayout& layout() const override { return sampler_.layout(); }
  bool streaming() const override { return false; }

  DrainReport drain(double now, std::vector<TimedSample>& out) override;

  void set_fault_injector(sim::FaultInjector* injector) override {
    sampler_.set_fault_injector(injector);
  }

  std::uint64_t samples_taken() const override {
    return sampler_.samples_taken();
  }

  void persist(util::StateIO& io) override;

 private:
  HostSampler sampler_;
  std::uint64_t next_sequence_ = 0;
};

class RingSampleSource final : public SampleSource {
 public:
  /// `scale[d]` is the full-scale raw value of flat dimension d (the
  /// host capacity of its metric kind); the stream emits
  /// scale * mix * trace intensity times (1 + gaussian noise of
  /// `noise_fraction`). The trace replays on a loop, one trace-day per
  /// 300 simulated seconds. `seed` seeds the value noise and the
  /// per-dimension demand mix.
  RingSampleSource(MetricLayout layout, std::vector<double> scale,
                   trace::Trace trace, const IngestConfig& config,
                   double noise_fraction, std::uint64_t seed);

  const MetricLayout& layout() const override { return layout_; }
  bool streaming() const override { return true; }

  DrainReport drain(double now, std::vector<TimedSample>& out) override;

  void set_fault_injector(sim::FaultInjector* injector) override;

  std::uint64_t samples_taken() const override { return delivered_total_; }

  /// Emissions dropped by a full ring so far.
  // sa-lint: test-observer(tests check it sums the per-drain reports)
  std::uint64_t overflow_total() const { return overflow_total_; }

  /// Snapshot of the stream position: both RNGs, the next emission time
  /// and sequence, the queued and pending samples, and the delivered /
  /// overflow counters. Samples held back by ingest-delay are flushed
  /// before every drain() returns, so none are in flight at a period
  /// boundary.
  void persist(util::StateIO& io) override;

 private:
  /// Emission interval at simulated time t (burst window aware).
  double interval_at(double t) const;
  Measurement synthesize(double t);
  /// Queues one sample; a full ring counts the drop instead.
  void emit(TimedSample sample);

  MetricLayout layout_;
  std::vector<double> scale_;
  std::vector<double> mix_;  // per-dimension demand weight, seed-derived
  trace::Trace trace_;
  IngestConfig config_;
  double noise_fraction_;
  std::uint64_t seed_;
  /// config_.ring_capacity rounded up to a power of two.
  std::size_t capacity_;
  sim::FaultInjector* injector_ = nullptr;
  std::vector<sim::FaultSpec> ingest_specs_;

  // --- Stream state (checkpointed). -------------------------------------
  Rng value_rng_;
  Rng ingest_rng_;
  double next_time_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::deque<TimedSample> ring_;
  std::optional<TimedSample> pending_;  // popped but not yet due
  std::uint64_t delivered_total_ = 0;
  std::uint64_t overflow_total_ = 0;
};

}  // namespace stayaway::monitor
