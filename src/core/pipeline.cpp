#include "core/pipeline.hpp"

#include "trace/diurnal.hpp"
#include "util/check.hpp"

namespace stayaway::core {

namespace {

/// Builds the configured SampleSource (DESIGN.md §15). The synchronous
/// source is the default and keeps the record stream byte-identical to
/// the historical loop; the ring source replays a diurnal trace through
/// an async producer at config.ingest.rate_hz.
std::unique_ptr<monitor::SampleSource> make_sample_source(
    sim::SimHost& host, const StayAwayConfig& config,
    const monitor::CapacityNormalizer& normalizer) {
  monitor::HostSampler sampler(host, config.sampler);
  if (!config.ingest.streaming()) {
    return std::make_unique<monitor::SynchronousSampleSource>(
        std::move(sampler));
  }
  const monitor::MetricLayout& layout = sampler.layout();
  // Full-scale raw value per flat dimension: the host capacity of the
  // dimension's metric kind (same basis the normalizer divides by).
  std::vector<double> scale(layout.dimension(), 0.0);
  for (std::size_t e = 0; e < layout.entities.size(); ++e) {
    for (std::size_t k = 0; k < layout.metrics.size(); ++k) {
      scale[layout.index_of(e, k)] = normalizer.capacity_of(layout.metrics[k]);
    }
  }
  trace::DiurnalSpec spec;
  spec.seed = config.sampler.seed;
  monitor::RingStreamOptions options;
  options.rate_hz = config.ingest.rate_hz;
  options.lookahead_s = config.ingest.lookahead_s;
  options.ring_capacity = config.ingest.ring_capacity;
  options.burst_rate_hz = config.ingest.burst_rate_hz;
  options.burst_start_s = config.ingest.burst_start_s;
  options.burst_end_s = config.ingest.burst_end_s;
  options.noise_fraction = config.sampler.noise_fraction;
  options.seed = config.sampler.seed;
  return std::make_unique<monitor::RingSampleSource>(
      layout, std::move(scale), trace::generate_diurnal(spec), options);
}

}  // namespace

StageThrowError::StageThrowError(double time)
    : std::runtime_error("injected stage throw at t=" +
                         std::to_string(time)),
      time_(time) {}

StageStallError::StageStallError(double time)
    : std::runtime_error("injected stage stall at t=" +
                         std::to_string(time)),
      time_(time) {}

HostPipeline::HostPipeline(sim::SimHost& host, const sim::QosProbe& probe,
                           StayAwayConfig config)
    : host_(&host), probe_(&probe), config_(std::move(config)) {
  StageSet stages;
  monitor::CapacityNormalizer normalizer(
      host.spec(), monitor::HostSampler(host, config_.sampler).layout());
  auto mapper = std::make_unique<StayAwayMapper>(
      make_sample_source(host, config_, normalizer), std::move(normalizer),
      config_);
  stages.forecaster = std::make_unique<TrajectoryForecaster>(
      config_, mapper->layout().dimension());
  stages.actuator = std::make_unique<GovernorActuator>(config_);
  stages.mapper = std::move(mapper);
  init(std::move(stages));
}

HostPipeline::HostPipeline(sim::SimHost& host, const sim::QosProbe& probe,
                           StayAwayConfig config, StageSet stages)
    : host_(&host), probe_(&probe), config_(std::move(config)) {
  init(std::move(stages));
}

HostPipeline::~HostPipeline() = default;

void HostPipeline::init(StageSet stages) {
  SA_REQUIRE(config_.period_s > 0.0, "control period must be positive");
  SA_REQUIRE(config_.degradation.spike_margin > 0.0,
             "spike margin must be positive");
  SA_REQUIRE(config_.degradation.qos_blind_failsafe_periods > 0,
             "failsafe patience must be at least one period");
  SA_REQUIRE(config_.degradation.recovery_periods > 0,
             "recovery hysteresis must be at least one period");
  SA_REQUIRE(config_.degradation.degraded_majority_fraction >= 0.0 &&
                 config_.degradation.degraded_majority_fraction <= 1.0,
             "degraded majority fraction must be in [0,1]");
  SA_REQUIRE(stages.forecaster == nullptr || stages.mapper != nullptr,
             "a forecaster needs a mapper's state space");
  port_ = std::make_unique<SimHostActuationPort>(*host_);
  mapper_ = std::move(stages.mapper);
  forecaster_ = std::move(stages.forecaster);
  actuator_ = std::move(stages.actuator);
  sa_mapper_ = dynamic_cast<StayAwayMapper*>(mapper_.get());
  sa_forecaster_ = dynamic_cast<TrajectoryForecaster*>(forecaster_.get());
  sa_actuator_ = dynamic_cast<GovernorActuator*>(actuator_.get());
}

void HostPipeline::set_host_label(std::string label) {
  SA_REQUIRE(observer_ == nullptr,
             "set the host label before attaching the observer");
  label_ = std::move(label);
}

void HostPipeline::install_faults(const sim::FaultPlan& plan) {
  SA_REQUIRE(records_.empty(),
             "fault plans must be installed before the first period");
  faults_.emplace(plan);
  if (sa_mapper_ != nullptr) sa_mapper_->set_fault_injector(&*faults_);
  port_->set_faults(&*faults_);
}

const PeriodRecord& HostPipeline::on_period() {
  // Injected stage failures fire before any stage state mutates (and
  // before any RNG draw), so a recovered or retried period replays
  // byte-identically (DESIGN.md §17).
  if (faults_.has_value()) {
    double entry_now = host_->now();
    if (faults_->stage_throw(entry_now)) throw StageThrowError(entry_now);
    if (faults_->stage_stall(entry_now, stall_attempts_)) {
      ++stall_attempts_;
      throw StageStallError(entry_now);
    }
    stall_attempts_ = 0;
  }
  obs::Span period_span = observer_ != nullptr
                              ? observer_->span("period", host_->now())
                              : obs::Span{};
  PeriodRecord rec;
  rec.time = host_->now();
  rec.mode = monitor::detect_mode(*host_);

  // --- Mapping (§3.1): sample, quarantine, normalize, dedup, embed. ---
  monitor::SampleHealth health;
  if (mapper_ != nullptr) health = mapper_->map(rec, observer_);

  // QoS label (§3.1: the application reports violations). Labels are
  // evidence based (see StateSpace): each period contributes one
  // (visit, violated?) observation to its representative. A QoS-blind
  // period contributes nothing — a silent probe is missing evidence, not
  // evidence of safety.
  rec.qos_visible = !(faults_.has_value() && faults_->qos_blind(rec.time));
  rec.violation_observed = rec.qos_visible && probe_->violated();
  if (mapper_ != nullptr && rec.qos_visible) {
    mapper_->observe_qos(rec.representative, rec.violation_observed);
  }

  update_degradation(health, rec.qos_visible);
  rec.degradation = degradation_;

  // --- Prediction (§3.2). ---
  if (forecaster_ != nullptr) {
    // Degraded telemetry widens the decision: a lower vote threshold
    // pauses earlier when the inputs are imputed or the probe just went
    // quiet.
    bool widened = config_.degradation.enabled &&
                   degradation_ != DegradationState::Normal;
    forecaster_->forecast(mapper_->space(), rec, widened, observer_);
  }

  // --- Action (§3.3). ---
  last_outcome_ = Actuator::Outcome{};
  if (actuator_ != nullptr) {
    last_outcome_ = actuator_->act(*port_, rec, degradation_, observer_);
  }

  records_.push_back(rec);
  period_span.close();
  if (observer_ != nullptr) publish(records_.back(), last_outcome_.resumed);
  transition_.reset();
  return records_.back();
}

void HostPipeline::update_degradation(const monitor::SampleHealth& health,
                                      bool qos_visible) {
  if (!config_.degradation.enabled) return;  // state pinned at Normal
  if (qos_visible) {
    qos_blind_streak_ = 0;
  } else {
    ++qos_blind_streak_;
  }
  DegradationState before = degradation_;
  bool healthy = qos_visible && !health.imputed();
  if (healthy) {
    // Recovery is hysteretic and stepwise: recovery_periods clean periods
    // buy one level down, so a flapping sensor cannot bounce the loop
    // straight back to Normal.
    ++healthy_streak_;
    if (healthy_streak_ >= config_.degradation.recovery_periods &&
        degradation_ != DegradationState::Normal) {
      degradation_ = degradation_ == DegradationState::Failsafe
                         ? DegradationState::Degraded
                         : DegradationState::Normal;
      healthy_streak_ = 0;
    }
  } else {
    healthy_streak_ = 0;
    DegradationState escalated =
        qos_blind_streak_ >= config_.degradation.qos_blind_failsafe_periods
            ? DegradationState::Failsafe
            : DegradationState::Degraded;
    if (escalated > degradation_) degradation_ = escalated;
  }
  if (degradation_ != before) {
    transition_ = std::make_pair(before, degradation_);
  }
}

std::unique_ptr<Actuator> HostPipeline::release_actuator() {
  sa_actuator_ = nullptr;
  return std::move(actuator_);
}

void HostPipeline::set_actuator(std::unique_ptr<Actuator> actuator) {
  actuator_ = std::move(actuator);
  sa_actuator_ = dynamic_cast<GovernorActuator*>(actuator_.get());
}

bool HostPipeline::checkpointable() const {
  return (mapper_ == nullptr || mapper_->checkpointable()) &&
         (forecaster_ == nullptr || forecaster_->checkpointable()) &&
         (actuator_ == nullptr || actuator_->checkpointable());
}

void HostPipeline::save_state(util::StateWriter& w) const {
  SA_REQUIRE(checkpointable(),
             "save_state on a pipeline with a non-checkpointable stage");
  w.boolean("has_mapper", mapper_ != nullptr);
  if (mapper_ != nullptr) mapper_->save_state(w);
  w.boolean("has_forecaster", forecaster_ != nullptr);
  if (forecaster_ != nullptr) forecaster_->save_state(w);
  w.boolean("has_actuator", actuator_ != nullptr);
  if (actuator_ != nullptr) actuator_->save_state(w);
  port_->save_state(w);
  w.boolean("has_faults", faults_.has_value());
  if (faults_.has_value()) faults_->save_state(w);
  w.u64("degradation", static_cast<std::uint64_t>(degradation_));
  w.u64("qos_blind_streak", qos_blind_streak_);
  w.u64("healthy_streak", healthy_streak_);
}

void HostPipeline::load_state(util::StateReader& r) {
  SA_REQUIRE(checkpointable(),
             "load_state on a pipeline with a non-checkpointable stage");
  if (r.boolean("has_mapper") != (mapper_ != nullptr)) {
    throw util::StateCodecError("checkpoint/pipeline mapper wiring mismatch");
  }
  if (mapper_ != nullptr) mapper_->load_state(r);
  if (r.boolean("has_forecaster") != (forecaster_ != nullptr)) {
    throw util::StateCodecError(
        "checkpoint/pipeline forecaster wiring mismatch");
  }
  if (forecaster_ != nullptr) forecaster_->load_state(r);
  if (r.boolean("has_actuator") != (actuator_ != nullptr)) {
    throw util::StateCodecError("checkpoint/pipeline actuator wiring mismatch");
  }
  if (actuator_ != nullptr) actuator_->load_state(r);
  port_->load_state(r);
  if (r.boolean("has_faults") != faults_.has_value()) {
    throw util::StateCodecError(
        "checkpoint/pipeline fault-injector wiring mismatch");
  }
  if (faults_.has_value()) faults_->load_state(r);
  std::uint64_t degradation = r.u64("degradation");
  if (degradation > static_cast<std::uint64_t>(DegradationState::Failsafe)) {
    throw util::StateCodecError("degradation state out of range");
  }
  degradation_ = static_cast<DegradationState>(degradation);
  qos_blind_streak_ = static_cast<std::size_t>(r.u64("qos_blind_streak"));
  healthy_streak_ = static_cast<std::size_t>(r.u64("healthy_streak"));
}

void HostPipeline::seed_records(std::vector<PeriodRecord> records) {
  SA_REQUIRE(records_.empty(),
             "restored record history must be seeded before the first period");
  records_ = std::move(records);
}

std::string HostPipeline::metric_name(const char* name) const {
  if (label_.empty()) return name;
  return "host." + label_ + "." + name;
}

void HostPipeline::set_observer(obs::Observer* observer) {
  observer_ = observer;
  if (observer_ == nullptr) {
    metrics_ = LoopMetrics{};
    return;
  }
  obs::MetricsRegistry& reg = observer_->metrics();
  metrics_.periods = reg.counter(metric_name("loop.periods"));
  metrics_.violations_observed =
      reg.counter(metric_name("loop.violations_observed"));
  metrics_.violations_predicted =
      reg.counter(metric_name("loop.violations_predicted"));
  metrics_.new_representatives =
      reg.counter(metric_name("loop.new_representatives"));
  metrics_.pauses = reg.counter(metric_name("loop.pauses"));
  metrics_.resumes = reg.counter(metric_name("loop.resumes"));
  metrics_.beta = reg.gauge(metric_name("governor.beta"));
  metrics_.stress = reg.gauge(metric_name("embedder.stress"));
  metrics_.representatives = reg.gauge(metric_name("map.representatives"));
  metrics_.violation_states = reg.gauge(metric_name("map.violation_states"));
  metrics_.tally_accuracy =
      reg.gauge(metric_name("predictor.tally_accuracy"));
  metrics_.embed_iterations =
      reg.gauge(metric_name("embedder.smacof_iterations_total"));
  metrics_.embed_cold_skips =
      reg.gauge(metric_name("embedder.cold_runs_skipped_total"));
  metrics_.embed_rebuilds =
      reg.gauge(metric_name("embedder.matrix_rebuilds_total"));
  metrics_.space_invalidations =
      reg.gauge(metric_name("space.cache_invalidations_total"));
  metrics_.space_rebuilds =
      reg.gauge(metric_name("space.cache_rebuilds_total"));
  metrics_.governor_failed_resumes =
      reg.gauge(metric_name("governor.failed_resumes_total"));
  metrics_.governor_random_resumes =
      reg.gauge(metric_name("governor.random_resumes_total"));
  metrics_.sampler_samples = reg.gauge(metric_name("sampler.samples_total"));
  metrics_.quarantined_readings =
      reg.counter(metric_name("health.quarantined_readings"));
  metrics_.qos_blind_periods =
      reg.counter(metric_name("health.qos_blind_periods"));
  metrics_.degraded_periods =
      reg.counter(metric_name("health.degraded_periods"));
  metrics_.degradation_transitions =
      reg.counter(metric_name("health.degradation_transitions"));
  metrics_.actuation_retries = reg.counter(metric_name("actuation.retries"));
  metrics_.degradation_state =
      reg.gauge(metric_name("health.degradation_state"));
  metrics_.sample_staleness =
      reg.gauge(metric_name("health.sample_staleness"));
  metrics_.actuation_abandoned =
      reg.gauge(metric_name("actuation.abandoned_total"));
  metrics_.faults_injected =
      reg.gauge(metric_name("faults.faulted_samples_total"));
}

void HostPipeline::publish(const PeriodRecord& rec,
                           const std::vector<sim::VmId>& resumed) {
  metrics_.periods.inc();
  if (rec.violation_observed) metrics_.violations_observed.inc();
  if (rec.violation_predicted) metrics_.violations_predicted.inc();
  if (rec.new_representative) metrics_.new_representatives.inc();
  if (rec.action == ThrottleAction::Pause) metrics_.pauses.inc();
  if (rec.action == ThrottleAction::Resume) metrics_.resumes.inc();
  metrics_.beta.set(rec.beta);
  metrics_.stress.set(rec.stress);
  if (sa_mapper_ != nullptr) {
    metrics_.representatives.set(
        static_cast<double>(sa_mapper_->representatives().size()));
    metrics_.violation_states.set(
        static_cast<double>(sa_mapper_->space().violation_count()));
    metrics_.embed_iterations.set(
        static_cast<double>(sa_mapper_->embedder().total_iterations()));
    metrics_.embed_cold_skips.set(
        static_cast<double>(sa_mapper_->embedder().cold_runs_skipped()));
    metrics_.embed_rebuilds.set(
        static_cast<double>(sa_mapper_->embedder().rebuilds()));
    metrics_.space_invalidations.set(
        static_cast<double>(sa_mapper_->space().cache_invalidations()));
    metrics_.space_rebuilds.set(
        static_cast<double>(sa_mapper_->space().cache_rebuilds()));
    metrics_.sampler_samples.set(
        static_cast<double>(sa_mapper_->source().samples_taken()));
  }
  if (sa_forecaster_ != nullptr) {
    metrics_.tally_accuracy.set(sa_forecaster_->tally().accuracy());
  }
  if (sa_actuator_ != nullptr) {
    metrics_.governor_failed_resumes.set(
        static_cast<double>(sa_actuator_->governor().failed_resumes()));
    metrics_.governor_random_resumes.set(
        static_cast<double>(sa_actuator_->governor().random_resumes()));
    metrics_.actuation_abandoned.set(
        static_cast<double>(sa_actuator_->actuation_abandoned()));
  }
  if (rec.quarantined_dims > 0) {
    metrics_.quarantined_readings.inc(rec.quarantined_dims);
  }
  if (!rec.qos_visible) metrics_.qos_blind_periods.inc();
  if (rec.degradation != DegradationState::Normal) {
    metrics_.degraded_periods.inc();
  }
  if (transition_.has_value()) metrics_.degradation_transitions.inc();
  if (rec.actuation_retries > 0) {
    metrics_.actuation_retries.inc(rec.actuation_retries);
  }
  metrics_.degradation_state.set(static_cast<double>(rec.degradation));
  metrics_.sample_staleness.set(static_cast<double>(rec.max_staleness));
  if (faults_.has_value()) {
    metrics_.faults_injected.set(
        static_cast<double>(faults_->faulted_samples()));
  }

  if (observer_->sink() == nullptr) return;
  obs::Event e(rec.time, "period");
  if (!label_.empty()) e.with("host", obs::JsonValue(label_));
  e.with("period", obs::JsonValue(records_.size() - 1))
      .with("mode", obs::JsonValue(monitor::to_string(rec.mode)))
      .with("rep", obs::JsonValue(rec.representative))
      .with("new_rep", obs::JsonValue(rec.new_representative))
      .with("x", obs::JsonValue(rec.state.x))
      .with("y", obs::JsonValue(rec.state.y))
      .with("violation_observed", obs::JsonValue(rec.violation_observed))
      .with("violation_predicted", obs::JsonValue(rec.violation_predicted))
      .with("model_ready", obs::JsonValue(rec.model_ready))
      .with("action", obs::JsonValue(to_string(rec.action)))
      .with("batch_paused", obs::JsonValue(rec.batch_paused_after))
      .with("stress", obs::JsonValue(rec.stress))
      .with("beta", obs::JsonValue(rec.beta))
      .with("degradation", obs::JsonValue(to_string(rec.degradation)))
      .with("quarantined", obs::JsonValue(rec.quarantined_dims))
      .with("qos_visible", obs::JsonValue(rec.qos_visible));
  observer_->emit(e);

  if (transition_.has_value()) {
    obs::Event de(rec.time, "degradation");
    if (!label_.empty()) de.with("host", obs::JsonValue(label_));
    de.with("from", obs::JsonValue(to_string(transition_->first)))
        .with("to", obs::JsonValue(to_string(transition_->second)))
        .with("qos_blind_streak", obs::JsonValue(qos_blind_streak_))
        .with("max_staleness", obs::JsonValue(rec.max_staleness));
    observer_->emit(de);
  }
  if (rec.actuation_retries > 0 || rec.actuation_pending) {
    obs::Event ae(rec.time, "actuation");
    if (!label_.empty()) ae.with("host", obs::JsonValue(label_));
    ae.with("reissued", obs::JsonValue(rec.actuation_retries))
        .with("pending", obs::JsonValue(rec.actuation_pending));
    if (sa_actuator_ != nullptr) {
      ae.with("abandoned_total",
              obs::JsonValue(sa_actuator_->actuation_abandoned()));
    }
    observer_->emit(ae);
  }

  if (rec.action == ThrottleAction::Pause) {
    obs::Event pe(rec.time, "pause");
    if (!label_.empty()) pe.with("host", obs::JsonValue(label_));
    pe.with("reason", obs::JsonValue(rec.violation_observed
                                         ? "observed-violation"
                                         : "predicted-violation"));
    if (sa_actuator_ != nullptr) {
      pe.with("targets", obs::JsonValue(sa_actuator_->throttled().size()));
    }
    observer_->emit(pe);
  } else if (rec.action == ThrottleAction::Resume) {
    obs::Event re(rec.time, "resume");
    if (!label_.empty()) re.with("host", obs::JsonValue(label_));
    std::optional<ResumeReason> reason =
        sa_actuator_ != nullptr ? sa_actuator_->governor().last_resume_reason()
                                : std::nullopt;
    re.with("reason", obs::JsonValue(reason.has_value() ? to_string(*reason)
                                                        : "external"))
        .with("targets", obs::JsonValue(resumed.size()));
    observer_->emit(re);
  }
}

}  // namespace stayaway::core
