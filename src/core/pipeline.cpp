#include "core/pipeline.hpp"

#include "trace/diurnal.hpp"
#include "util/check.hpp"

namespace stayaway::core {

namespace {

/// Consecutive QoS-blind periods before the failsafe (DESIGN.md §12):
/// with no violation signal for this long, every batch VM is paused
/// until telemetry recovers (protecting the sensitive app is the prime
/// directive; lost batch throughput is the accepted cost).
constexpr std::size_t kQosBlindFailsafePeriods = 3;
/// Hysteresis on recovery: consecutive fully-healthy periods required to
/// step one level back toward Normal (Failsafe -> Degraded -> Normal),
/// so a flickering sensor cannot flap the state machine.
constexpr std::size_t kRecoveryPeriods = 3;

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
                           StayAwayConfig config,
                           std::unique_ptr<Actuator> actuator)
    : host_(&host),
      probe_(&probe),
      config_(std::move(config)),
      port_(std::make_unique<SimHostActuationPort>(host)),
      actuator_(std::move(actuator)),
      sa_actuator_(dynamic_cast<GovernorActuator*>(actuator_.get())) {
  SA_REQUIRE(config_.period_s > 0.0, "control period must be positive");
}

HostPipeline::HostPipeline(sim::SimHost& host, const sim::QosProbe& probe,
                           StayAwayConfig config)
    : HostPipeline(host, probe, std::move(config), nullptr) {
  // One sampler fixes the layout. The synchronous source (the default,
  // byte-identical to the historical loop) takes it over; the ring
  // source (DESIGN.md §15) replays a diurnal trace through a bounded ring
  // at config.ingest.rate_hz, scaled by the normalizer's capacities.
  monitor::HostSampler sampler(host, config_.sampler);
  monitor::CapacityNormalizer normalizer(host.spec(), sampler.layout());
  std::unique_ptr<monitor::SampleSource> source;
  if (config_.ingest.streaming()) {
    trace::DiurnalSpec spec;
    spec.seed = config_.sampler.seed;
    source = std::make_unique<monitor::RingSampleSource>(
        sampler.layout(), normalizer.capacity(), trace::generate_diurnal(spec),
        config_.ingest, config_.sampler.noise_fraction, config_.sampler.seed);
  } else {
    source =
        std::make_unique<monitor::SynchronousSampleSource>(std::move(sampler));
  }
  mapper_ = std::make_unique<StayAwayMapper>(std::move(source),
                                             std::move(normalizer), config_);
  forecaster_ = std::make_unique<TrajectoryForecaster>(
      config_, mapper_->layout().dimension());
  set_actuator(std::make_unique<GovernorActuator>(config_));
}

HostPipeline::~HostPipeline() = default;

void HostPipeline::set_host_label(std::string label) {
  SA_REQUIRE(observer_ == nullptr,
             "set the host label before attaching the observer");
  label_ = std::move(label);
}

void HostPipeline::install_faults(const sim::FaultPlan& plan) {
  SA_REQUIRE(records_.empty(),
             "fault plans must be installed before the first period");
  faults_.emplace(plan);
  if (mapper_ != nullptr) mapper_->set_fault_injector(&*faults_);
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
  last_outcome_.clear();
  if (actuator_ != nullptr) {
    actuator_->act(*port_, rec, degradation_, observer_, last_outcome_);
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
    // Recovery is hysteretic and stepwise: kRecoveryPeriods clean periods
    // buy one level down, so a flapping sensor cannot bounce the loop
    // straight back to Normal.
    ++healthy_streak_;
    if (healthy_streak_ >= kRecoveryPeriods &&
        degradation_ != DegradationState::Normal) {
      degradation_ = degradation_ == DegradationState::Failsafe
                         ? DegradationState::Degraded
                         : DegradationState::Normal;
      healthy_streak_ = 0;
    }
  } else {
    healthy_streak_ = 0;
    DegradationState escalated =
        qos_blind_streak_ >= kQosBlindFailsafePeriods
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

void HostPipeline::persist(util::StateIO& io) {
  io.expect("has_mapper", mapper_ != nullptr,
            "checkpoint/pipeline mapper wiring mismatch");
  if (mapper_ != nullptr) mapper_->persist(io);
  io.expect("has_forecaster", forecaster_ != nullptr,
            "checkpoint/pipeline forecaster wiring mismatch");
  if (forecaster_ != nullptr) forecaster_->persist(io);
  io.expect("has_actuator", actuator_ != nullptr,
            "checkpoint/pipeline actuator wiring mismatch");
  if (actuator_ != nullptr) actuator_->persist(io);
  port_->persist(io);
  io.expect("has_faults", faults_.has_value(),
            "checkpoint/pipeline fault-injector wiring mismatch");
  if (faults_.has_value()) faults_->persist(io);
  io.enumeration("degradation", degradation_, DegradationState::Failsafe);
  io.u64("qos_blind_streak", qos_blind_streak_);
  io.u64("healthy_streak", healthy_streak_);
}

void HostPipeline::seed_records(std::vector<PeriodRecord> records) {
  SA_REQUIRE(records_.empty(),
             "restored record history must be seeded before the first period");
  records_ = std::move(records);
}

HostPipeline::RecordSection HostPipeline::encoded_records() {
  const std::size_t hashed = encoded_records_.size();
  // The StateIO `line("record", ...)` form, appended in place.
  for (; encoded_count_ < records_.size(); ++encoded_count_) {
    encoded_records_ += "record = ";
    append_record(encoded_records_, records_[encoded_count_]);
    encoded_records_ += '\n';
  }
  encoded_fnv_ =
      fnv1a64(std::string_view(encoded_records_).substr(hashed), encoded_fnv_);
  return {encoded_records_, encoded_fnv_};
}

std::vector<PeriodRecord> HostPipeline::take_records() {
  std::string().swap(encoded_records_);
  encoded_count_ = 0;
  encoded_fnv_ = kFnv1a64Basis;
  return std::move(records_);
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
  if (mapper_ != nullptr) {
    metrics_.representatives.set(
        static_cast<double>(mapper_->representatives().size()));
    metrics_.violation_states.set(
        static_cast<double>(mapper_->space().violation_count()));
    metrics_.embed_iterations.set(
        static_cast<double>(mapper_->embedder().total_iterations()));
    metrics_.embed_cold_skips.set(
        static_cast<double>(mapper_->embedder().cold_runs_skipped()));
    metrics_.embed_rebuilds.set(
        static_cast<double>(mapper_->embedder().rebuilds()));
    metrics_.space_invalidations.set(
        static_cast<double>(mapper_->space().cache_invalidations()));
    metrics_.space_rebuilds.set(
        static_cast<double>(mapper_->space().cache_rebuilds()));
    metrics_.sampler_samples.set(
        static_cast<double>(mapper_->source().samples_taken()));
  }
  if (forecaster_ != nullptr) {
    metrics_.tally_accuracy.set(forecaster_->tally().accuracy());
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
