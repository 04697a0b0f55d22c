// Validate-and-quarantine stage between the sampler and the normalizer.
//
// Real telemetry goes missing and goes wrong: counters wrap, probes time
// out, readings arrive as NaN or as physically impossible spikes. Nothing
// downstream of the sampler (representative dedup, MDS embedding,
// trajectory models) tolerates a non-finite coordinate, so every raw
// reading passes through SampleQuarantine before normalization: readings
// that are non-finite, negative, or above the dimension's plausible upper
// bound are quarantined — replaced by the dimension's last good value —
// and a per-dimension staleness counter records how long each dimension
// has been running on imputed data. The runtime widens its decisions
// conservatively while any dimension is stale (DESIGN.md §12).
//
// On healthy input the stage is a pure pass-through: it never alters a
// finite in-range reading, so the fault-free control loop is byte-
// identical with or without it (golden test in tests/test_runtime.cpp).
// Under streaming ingestion (DESIGN.md §15) the quarantine is also the
// admission gate: every drained sample passes admit() first, which
// classifies late/out-of-order arrivals (admitted but counted — their
// values still carry information) and duplicate deliveries (rejected).
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "util/statecodec.hpp"

namespace stayaway::monitor {

/// Health summary of one validated sample.
struct SampleHealth {
  std::size_t dimension = 0;
  /// Dimensions imputed in this sample.
  std::size_t quarantined = 0;
  /// Longest run of consecutive imputations across dimensions, ending at
  /// this sample. 0 when every dimension carried a good reading.
  std::size_t max_staleness = 0;

  bool imputed() const { return quarantined > 0; }
};

class SampleQuarantine {
 public:
  /// `upper_bounds[i]` is the largest plausible raw reading of flat
  /// dimension i (host capacity times a spike margin). Readings above it,
  /// below zero, or non-finite are quarantined.
  explicit SampleQuarantine(std::vector<double> upper_bounds);

  std::size_t dimension() const { return bounds_.size(); }

  /// Validates a raw measurement in place: bad readings are replaced with
  /// the dimension's last good value (0 until one exists) and counted.
  SampleHealth validate(std::vector<double>& values);

  /// Admission verdict for one streamed sample (checked before validate).
  enum class Admit {
    Ok,         // in order, first delivery
    Late,       // timestamp older than the newest seen; admitted, counted
    Duplicate,  // sequence already delivered; reject the sample
  };

  /// Admission gate for streamed samples: classifies a (timestamp,
  /// sequence) pair. Duplicates must be dropped by the caller; late
  /// samples are admitted (their values are real readings) but counted.
  /// The synchronous path's strictly increasing clock always returns Ok,
  /// so this is a no-op on the historical feed.
  Admit admit(double time, std::uint64_t sequence);

  /// Readings quarantined across the stage's lifetime (observability).
  std::size_t total_quarantined() const { return total_quarantined_; }
  /// Late/out-of-order samples admitted across the lifetime.
  std::size_t total_late() const { return total_late_; }
  /// Duplicate deliveries rejected across the lifetime.
  std::size_t total_duplicates() const { return total_duplicates_; }

  /// Snapshot of imputation state, admission clock and counters
  /// (DESIGN.md §17). The seen sequences serialize as the watermark plus
  /// the sorted set above it, so an in-order feed snapshots in O(1).
  /// A load targets a freshly constructed quarantine with the same
  /// upper-bound layout (dimension checked).
  void persist(util::StateIO& io);

 private:
  std::vector<double> bounds_;
  std::vector<double> last_good_;
  std::vector<std::size_t> staleness_;
  std::size_t total_quarantined_ = 0;
  std::size_t total_late_ = 0;
  std::size_t total_duplicates_ = 0;
  double newest_time_ = 0.0;
  bool any_admitted_ = false;
  /// Every sequence below seen_below_ has been delivered; seen_above_
  /// holds the delivered ones above it (a reordered or gapped feed).
  /// An in-order sequence only advances the watermark, so the state
  /// stays bounded by the feed's disorder, not its length.
  std::uint64_t seen_below_ = 0;
  std::set<std::uint64_t> seen_above_;
};

}  // namespace stayaway::monitor
