#include "core/stages/mapper.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stayaway::core {

namespace {

/// Raw readings above (host capacity x this margin) quarantine as sensor
/// spikes (DESIGN.md §12).
constexpr double kSpikeMargin = 2.0;

/// Plausible upper bound of every raw reading: host capacity times the
/// spike margin. Feeds the validate-and-quarantine stage.
std::vector<double> quarantine_bounds(
    const monitor::CapacityNormalizer& normalizer) {
  std::vector<double> bounds = normalizer.capacity();
  for (double& b : bounds) b *= kSpikeMargin;
  return bounds;
}

}  // namespace

StayAwayMapper::StayAwayMapper(std::unique_ptr<monitor::SampleSource> source,
                               monitor::CapacityNormalizer normalizer,
                               const StayAwayConfig& config)
    : source_(std::move(source)),
      normalizer_(std::move(normalizer)),
      quarantine_(quarantine_bounds(normalizer_)),
      reps_(config.dedup_epsilon, config.max_representatives),
      embedder_(config.embed_method, config.landmark_count,
                config.warm_skip_stress) {
  SA_REQUIRE(source_ != nullptr, "the mapper needs a sample source");
  SA_REQUIRE(source_->layout().dimension() == normalizer_.capacity().size(),
             "sample source and normalizer layouts must agree");
}

monitor::SampleHealth StayAwayMapper::map(PeriodRecord& rec,
                                          obs::Observer* observer) {
  mapped_any_period_ = true;
  const std::size_t late_before = quarantine_.total_late();
  const std::size_t dup_before = quarantine_.total_duplicates();
  obs::Span sample_span = observer != nullptr
                              ? observer->span("sample", rec.time)
                              : obs::Span{};
  monitor::DrainReport report = source_->drain(rec.time, drain_buffer_);
  // Worst health over the period's samples: the degradation state machine
  // reacts to the most impaired reading, not the average.
  monitor::SampleHealth health;
  for (monitor::TimedSample& sample : drain_buffer_) {
    // Admission gate (streaming anomalies): a repeated sequence is a
    // duplicate delivery and is dropped outright; an out-of-order arrival
    // is counted late but still mapped — its values are as real as any.
    monitor::SampleQuarantine::Admit admit =
        quarantine_.admit(sample.measurement.time, sample.sequence);
    if (admit == monitor::SampleQuarantine::Admit::Duplicate) continue;
    // Validate-and-quarantine (DESIGN.md §12): non-finite or out-of-range
    // readings never reach the embedder — they are imputed from the
    // dimension's last good value. Pure pass-through on healthy input.
    monitor::SampleHealth h = quarantine_.validate(sample.measurement.values);
    health.quarantined = std::max(health.quarantined, h.quarantined);
    health.max_staleness = std::max(health.max_staleness, h.max_staleness);
    normalizer_.normalize(sample.measurement, normalized_);
    monitor::Assignment assignment = reps_.assign(normalized_);
    if (assignment.is_new) space_.add_state(StateLabel::Safe);
    last_representative_ = assignment.representative;
    rec.new_representative = assignment.is_new;
  }
  rec.quarantined_dims = health.quarantined;
  rec.max_staleness = health.max_staleness;
  sample_span.close();
  // The period maps to the most recent sample's representative; a drain
  // that delivered nothing re-reports the previous one.
  rec.representative = last_representative_;
  obs::Span embed_span = observer != nullptr
                             ? observer->span("embed", rec.time)
                             : obs::Span{};
  if (reps_.size() > 0) {
    space_.sync_positions(embedder_.update(reps_));
    rec.state = space_.position(rec.representative);
  }
  embed_span.close();
  rec.stress = embedder_.stress();
  if (source_->streaming()) {
    rec.samples_ingested = report.delivered;
    rec.late_samples = quarantine_.total_late() - late_before;
    rec.duplicate_samples = quarantine_.total_duplicates() - dup_before;
    rec.overflow_drops = report.overflow;
  }
  return health;
}

void StayAwayMapper::observe_qos(std::size_t representative, bool violated) {
  if (space_.size() == 0) return;  // no sample has mapped yet
  space_.observe_visit(representative, violated);
}

void StayAwayMapper::seed_template(const StateTemplate& t) {
  SA_REQUIRE(reps_.size() == 0, "templates must be seeded before any period");
  for (const auto& entry : t.entries) {
    SA_REQUIRE(entry.vector.size() == source_->layout().dimension(),
               "template dimension does not match the source layout");
    auto assignment = reps_.assign(entry.vector);
    if (assignment.is_new) {
      space_.add_state(entry.label);
    } else if (entry.label == StateLabel::Violation) {
      space_.force_violation(assignment.representative);
    }
  }
  space_.sync_positions(embedder_.update(reps_));
}

void StayAwayMapper::persist(util::StateIO& io) {
  source_->persist(io);
  quarantine_.persist(io);
  reps_.persist(io);
  space_.persist(io);
  if (io.loading() && space_.size() != reps_.size()) {
    throw util::StateCodecError(
        "mapper state: state space and representative set disagree");
  }
  embedder_.persist(io, reps_.all());
  io.u64("last_representative", last_representative_);
  io.boolean("mapped_any_period", mapped_any_period_);
}

StateTemplate StayAwayMapper::export_template(
    std::string sensitive_app_name) const {
  StateTemplate t;
  t.sensitive_app = std::move(sensitive_app_name);
  t.entries.reserve(reps_.size());
  for (std::size_t i = 0; i < reps_.size(); ++i) {
    t.entries.push_back({reps_.representative(i), space_.label(i)});
  }
  return t;
}

}  // namespace stayaway::core
