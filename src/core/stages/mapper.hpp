// StayAwayMapper: the paper's Mapping stage (§3.1) as a pipeline stage.
// Owns the whole ingest -> quarantine -> normalize -> dedup -> embed
// chain plus the labelled state space the downstream stages read. The
// sample source and normalizer are built by the pipeline (which is
// allowed to see the host) and moved in, so this stage never touches the
// host.
//
// Ingestion is a SampleSource drain (DESIGN.md §15): the synchronous
// source yields exactly one sample per period — byte-identical to the
// historical loop — while a streaming source may deliver many (or none).
// Every drained sample flows through the quarantine's admission gate
// (late/duplicate classification) and value validation, then dedup; the
// map is re-embedded once per period.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/embedder.hpp"
#include "core/period.hpp"
#include "core/statespace.hpp"
#include "core/template_store.hpp"
#include "monitor/health.hpp"
#include "monitor/normalizer.hpp"
#include "monitor/representative.hpp"
#include "monitor/sample_source.hpp"
#include "obs/observer.hpp"
#include "util/statecodec.hpp"

namespace stayaway::core {

class StayAwayMapper {
 public:
  /// `source` and `normalizer` must describe the same layout (the
  /// pipeline builds both from one sampler's layout).
  StayAwayMapper(std::unique_ptr<monitor::SampleSource> source,
                 monitor::CapacityNormalizer normalizer,
                 const StayAwayConfig& config);

  /// Fills rec.quarantined_dims, max_staleness, representative,
  /// new_representative, state and stress, and returns the sample health
  /// for the pipeline's degradation tracking.
  monitor::SampleHealth map(PeriodRecord& rec, obs::Observer* observer);
  /// One (visit, violated?) evidence observation; the pipeline calls it
  /// only on QoS-visible periods.
  void observe_qos(std::size_t representative, bool violated);
  /// The labelled map the forecaster predicts over.
  const StateSpace& space() const { return space_; }

  /// Sensor faults from the plan apply to every sample (and a streaming
  /// source additionally schedules the plan's ingest anomalies); nullptr
  /// detaches.
  void set_fault_injector(sim::FaultInjector* injector) {
    source_->set_fault_injector(injector);
  }

  /// Pre-loads the labelled states of a previous run (§6). Must be called
  /// before the first map(); entry dimensions must match the layout.
  void seed_template(const StateTemplate& t);
  /// Exports the current labelled representative set as a template.
  StateTemplate export_template(std::string sensitive_app_name) const;

  const MapEmbedder& embedder() const { return embedder_; }
  const monitor::RepresentativeSet& representatives() const { return reps_; }
  const monitor::MetricLayout& layout() const { return source_->layout(); }
  const monitor::SampleSource& source() const { return *source_; }
  /// Readings quarantined before they could reach the map (lifetime).
  std::size_t readings_quarantined() const {
    return quarantine_.total_quarantined();
  }

  /// Snapshot of the whole mapping chain: source/sampler RNG, quarantine,
  /// representative set, state space, embedder layout, and the carried
  /// representative (DESIGN.md §17).
  void persist(util::StateIO& io);

 private:
  std::unique_ptr<monitor::SampleSource> source_;
  monitor::CapacityNormalizer normalizer_;
  monitor::SampleQuarantine quarantine_;
  monitor::RepresentativeSet reps_;
  StateSpace space_;
  MapEmbedder embedder_;
  // Per-period buffers, reused so a steady-state map() allocates nothing.
  std::vector<monitor::TimedSample> drain_buffer_;
  std::vector<double> normalized_;
  /// Representative of the most recent assigned sample, carried across
  /// periods whose drain delivered nothing.
  std::size_t last_representative_ = 0;
  /// Set by the first map(); kept in the checkpoint body (DESIGN.md §17).
  bool mapped_any_period_ = false;
};

}  // namespace stayaway::core
