#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/cluster/coordinator.hpp"
#include "core/cluster/migration.hpp"
#include "core/stages/actuator.hpp"
#include "obs/observer.hpp"
#include "util/statecodec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace cluster = stayaway::core::cluster;
namespace obs = stayaway::obs;
namespace sim = stayaway::sim;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// One host's driving state, mirroring a run_fleet slot plus the
/// supervisor's per-member bookkeeping.
struct Host {
  std::size_t index = 0;
  std::vector<harness::TwinSpec> twins;
  harness::HostRig rig;
  std::unique_ptr<core::HostPipeline> pipeline;
  bool supervised = false;
  std::vector<std::string> checkpoints;  // newest last, two kept
  /// One observer per host, without a sink: its span histograms and loop
  /// metrics only. A fleet-wide observer would serialize the driving
  /// threads on the observer's span-histogram lock.
  obs::Observer observer;

  std::size_t violation_periods = 0;
  std::size_t recoveries = 0;
  std::size_t gap_periods = 0;
  std::size_t divergences = 0;

  // Timed layer calls, seconds.
  double sim_s = 0.0;
  double core_s = 0.0;
  double encode_s = 0.0;
  double recovery_s = 0.0;  // rebuild + restore + fast-forward + gap replay

  std::vector<double> tick_us;    // per live period: SimHost::run / ticks
  std::vector<double> period_us;  // per live period: on_period
  std::vector<double> encode_us;
  std::vector<double> restore_us;
  std::size_t blob_max = 0;

  double busy_s() const { return sim_s + core_s + encode_s + recovery_s; }
};

const core::GovernorActuator* governor_of(const core::HostPipeline& p) {
  if (const core::GovernorActuator* g = p.governor_actuator()) return g;
  if (const auto* mig =
          dynamic_cast<const cluster::MigrationActuator*>(p.actuator())) {
    return dynamic_cast<const core::GovernorActuator*>(mig->inner());
  }
  return nullptr;
}

/// Percentile of a bucketed span histogram: linear inside the bucket
/// holding the rank. Buckets are ~2x wide, so these are coarse.
double bucket_percentile(const obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const double target = q * static_cast<double>(h.count);
  double below = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const auto n = static_cast<double>(h.buckets[i]);
    if (n > 0.0 && below + n >= target) {
      double lo = i == 0 ? 0.0 : h.bounds[i - 1];
      double hi = i < h.bounds.size() ? h.bounds[i] : h.bounds.back();
      return lo + (target - below) / n * (hi - lo);
    }
    below += n;
  }
  return h.bounds.back();
}

class TracedFleet {
 public:
  explicit TracedFleet(const harness::FleetSpec& fleet)
      : fleet_(fleet),
        periods_(periods_per_host(fleet)),
        workers_(effective_workers(fleet)) {
    const harness::ExperimentSpec& e = fleet.hosts.front().experiment;
    ticks_ = static_cast<std::size_t>(std::llround(e.period_s / e.tick_s));
  }

  TracedRun run();

 private:
  void build(Host& h);
  void period(Host& h, std::size_t p);
  void recover(Host& h, std::size_t p, double fail_time);
  void drive(Host& h);
  /// Coordinator hooks re-resolving the host's current pipeline (crash
  /// recovery replaces it). Without migration wiring the actuator hook
  /// yields null.
  cluster::ClusterCoordinator::HostHooks hooks_for(Host* h) const;
  void wire_coordinator();
  std::vector<Metric> layer_metrics() const;
  Outcome outcome() const;

  const harness::FleetSpec& fleet_;
  std::size_t periods_;
  std::size_t workers_;
  std::size_t ticks_ = 1;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::unique_ptr<cluster::ClusterCoordinator> coordinator_;
  std::vector<double> step_us_;
  double rig_s_ = 0.0;
  double step_s_ = 0.0;
  double wall_s_ = 0.0;
};

void TracedFleet::build(Host& h) {
  h.pipeline.reset();
  h.rig = harness::build_host_rig(fleet_.hosts[h.index].experiment, h.twins);
  h.pipeline = make_pipeline(fleet_, h.index, h.rig);
  h.pipeline->set_observer(&h.observer);
}

void TracedFleet::period(Host& h, std::size_t p) {
  if (h.supervised) {
    // HostCrash fires at the period boundary, before any tick of p.
    const sim::FaultInjector* inj = h.pipeline->fault_injector();
    if (inj != nullptr && inj->crash_signal(h.rig.host->now())) {
      recover(h, p, h.rig.host->now());
    }
  }
  auto t0 = Clock::now();
  h.rig.host->run(ticks_);
  auto t1 = Clock::now();
  h.pipeline->on_period();
  auto t2 = Clock::now();
  double sim_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  double core_us = std::chrono::duration<double, std::micro>(t2 - t1).count();
  h.sim_s += sim_us * 1e-6;
  h.core_s += core_us * 1e-6;
  h.tick_us.push_back(sim_us / static_cast<double>(ticks_));
  h.period_us.push_back(core_us);

  // run_fleet's violation test: the sensitive VM is up and its probe
  // reports a violation.
  sim::SimHost& host = *h.rig.host;
  if (host.vm(h.rig.sensitive_id).present(host.now()) &&
      h.rig.probe->violated()) {
    ++h.violation_periods;
  }

  const std::size_t cadence = fleet_.checkpoint_every;
  if (h.supervised && cadence > 0 && (p + 1) % cadence == 0 &&
      h.pipeline->checkpointable()) {
    auto e0 = Clock::now();
    std::string blob = core::encode_checkpoint(*h.pipeline);
    double us = us_since(e0);
    h.encode_s += us * 1e-6;
    h.encode_us.push_back(us);
    h.blob_max = std::max(h.blob_max, blob.size());
    h.checkpoints.push_back(std::move(blob));
    if (h.checkpoints.size() > 2) h.checkpoints.erase(h.checkpoints.begin());
  }
}

// Mirrors the fleet supervisor's recovery: rebuild, restore the newest
// usable checkpoint, fast-forward the restored prefix, gap-replay up to
// the failed period checking every regenerated record against history.
void TracedFleet::recover(Host& h, std::size_t p, double fail_time) {
  auto t0 = Clock::now();
  std::vector<std::string> history;
  history.reserve(h.pipeline->records().size());
  for (const core::PeriodRecord& rec : h.pipeline->records()) {
    history.push_back(core::encode_record(rec));
  }
  std::size_t restored = 0;
  bool warm = false;
  while (!h.checkpoints.empty() && !warm) {
    build(h);
    auto r0 = Clock::now();
    try {
      restored = core::restore_checkpoint(*h.pipeline, h.checkpoints.back());
      warm = true;
    } catch (const stayaway::util::StateCodecError&) {
      h.checkpoints.pop_back();
    }
    h.restore_us.push_back(us_since(r0));
  }
  if (!warm) {
    build(h);
    restored = 0;
  }
  if (sim::FaultInjector* minj = h.pipeline->mutable_fault_injector()) {
    minj->set_crash_horizon(fail_time);
  }
  h.pipeline->set_observer(nullptr);  // the replay is silent
  core::SimHostActuationPort& port = h.pipeline->actuation_port();
  for (std::size_t k = 0; k < restored; ++k) {
    h.rig.host->run(ticks_);
    port.replay_delivered(h.rig.host->now());
  }
  for (std::size_t q = restored; q < p; ++q) {
    if (coordinator_) coordinator_->replay_host_period(h.index, q);
    h.rig.host->run(ticks_);
    const core::PeriodRecord& rec = h.pipeline->on_period();
    if (q >= history.size() || core::encode_record(rec) != history[q]) {
      ++h.divergences;
    }
  }
  h.gap_periods += p - restored;
  if (coordinator_) coordinator_->replay_host_period(h.index, p);
  h.pipeline->set_observer(&h.observer);
  ++h.recoveries;
  h.recovery_s += seconds_since(t0);
}

void TracedFleet::drive(Host& h) {
  for (std::size_t p = 0; p < periods_; ++p) period(h, p);
}

cluster::ClusterCoordinator::HostHooks TracedFleet::hooks_for(Host* h) const {
  return {fleet_.hosts[h->index].name, [h] { return h->pipeline.get(); },
          [h] {
            return static_cast<core::ActuationPort*>(
                &h->pipeline->actuation_port());
          },
          [h] {
            return dynamic_cast<cluster::MigrationActuator*>(
                h->pipeline->actuator());
          }};
}

void TracedFleet::wire_coordinator() {
  const harness::ClusterSpec& spec = *fleet_.cluster;
  coordinator_ = std::make_unique<cluster::ClusterCoordinator>(spec.config);
  for (auto& h : hosts_) coordinator_->add_host(hooks_for(h.get()));
  for (std::size_t j = 0; j < spec.mobile.size(); ++j) {
    std::vector<sim::VmId> ids;
    std::size_t home = 0;
    for (const auto& h : hosts_) {
      ids.push_back(h->rig.twin_ids[j]);
      if (fleet_.hosts[h->index].name == spec.mobile[j].home) home = h->index;
    }
    coordinator_->add_mobile_vm(spec.mobile[j].name, std::move(ids), home);
  }
  const double period_s = fleet_.hosts.front().experiment.period_s;
  for (std::size_t k = 0; k < spec.admissions.size(); ++k) {
    std::vector<sim::VmId> ids;
    for (const auto& h : hosts_) {
      ids.push_back(h->rig.twin_ids[spec.mobile.size() + k]);
    }
    auto arrival = static_cast<std::size_t>(
        std::llround(spec.admissions[k].arrival_s / period_s));
    coordinator_->add_admission(spec.admissions[k].name, std::move(ids),
                                arrival);
  }
}

TracedRun TracedFleet::run() {
  auto wall0 = Clock::now();
  for (std::size_t i = 0; i < fleet_.hosts.size(); ++i) {
    auto h = std::make_unique<Host>();
    h->index = i;
    h->twins = twins_for_host(fleet_, i);
    const harness::ExperimentSpec& e = fleet_.hosts[i].experiment;
    h->supervised = fleet_.supervise ||
                    (e.faults.has_value() && e.faults->has_crash_faults());
    auto t0 = Clock::now();
    build(*h);
    rig_s_ += seconds_since(t0);
    hosts_.push_back(std::move(h));
  }

  // Each thread drives a contiguous chunk of hosts, as the fleet's
  // worker pool partitions them.
  auto chunk_begin = [this](std::size_t c) {
    return c * hosts_.size() / workers_;
  };
  if (fleet_.cluster.has_value()) {
    wire_coordinator();
    for (std::size_t p = 0; p < periods_; ++p) {
      for (auto& h : hosts_) period(*h, p);
      if (p + 1 < periods_) {
        auto t0 = Clock::now();
        coordinator_->step(p);
        double us = us_since(t0);
        step_us_.push_back(us);
        step_s_ += us * 1e-6;
      }
    }
  } else if (workers_ == 1) {
    for (auto& h : hosts_) drive(*h);
  } else {
    std::vector<std::exception_ptr> errors(workers_);
    {
      // jthreads join on scope exit, also when spawning one throws.
      std::vector<std::jthread> threads;
      for (std::size_t c = 0; c < workers_; ++c) {
        threads.emplace_back([this, c, &errors, &chunk_begin] {
          try {
            for (std::size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
              drive(*hosts_[i]);
            }
          } catch (...) {
            errors[c] = std::current_exception();
          }
        });
      }
    }
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  wall_s_ = seconds_since(wall0);
  TracedRun out;
  out.wall_s = wall_s_;
  out.workers = workers_;
  double busiest = 0.0;
  for (std::size_t c = 0; c < workers_; ++c) {
    double busy = 0.0;
    for (std::size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
      busy += hosts_[i]->busy_s();
    }
    busiest = std::max(busiest, busy);
    out.busy_s += busy;
  }
  out.critical_s = rig_s_ + busiest + step_s_;

  out.outcome = outcome();
  out.metrics = layer_metrics();
  out.metrics.push_back({"trace.accounted_share",
                         wall_s_ > 0.0 ? out.critical_s / wall_s_ : 0.0,
                         "fraction", 0});
  return out;
}

Outcome TracedFleet::outcome() const {
  Outcome o;
  for (const auto& h : hosts_) {
    o.hosts.push_back(fleet_.hosts[h->index].name);
    o.counts.push_back(h->pipeline->records().size());
    std::vector<std::uint64_t> hashes;
    for (const core::PeriodRecord& rec : h->pipeline->records()) {
      hashes.push_back(record_hash(rec));
    }
    o.records.push_back(std::move(hashes));
    o.periods += h->period_us.size();
    o.violation_periods += h->violation_periods;
    ExactCounts& x = o.exact;
    x.recoveries += h->recoveries;
    x.gap_periods_replayed += h->gap_periods;
    x.divergences += h->divergences;
    const core::HostPipeline& p = *h->pipeline;
    if (const core::StayAwayMapper* m = p.stay_away_mapper()) {
      x.representatives_max =
          std::max(x.representatives_max, m->representatives().size());
    }
    if (const core::TrajectoryForecaster* f = p.trajectory_forecaster()) {
      x.predictions += f->tally().total();
      x.predictions_correct +=
          f->tally().true_positive + f->tally().true_negative;
    }
    if (const core::GovernorActuator* g = governor_of(p)) {
      x.pauses += g->governor().pauses();
      x.resumes += g->governor().resumes();
    }
    // Summed per host first, as run_fleet does, so the total is
    // bit-identical.
    const sim::SimHost& host = *h->rig.host;
    double batch = 0.0;
    for (sim::VmId id : h->rig.batch_ids) batch += host.vm(id).cpu_work_done();
    o.batch_core_s += batch;
  }
  if (coordinator_) {
    o.events = events_hash(coordinator_->events());
    o.exact.migrations = coordinator_->migrations();
    o.exact.admitted = coordinator_->admissions_accepted();
    o.exact.rejected = coordinator_->admissions_rejected();
  }
  return o;
}

std::vector<Metric> TracedFleet::layer_metrics() const {
  std::vector<double> tick_us, period_us, encode_us, restore_us;
  double sim_s = 0.0, core_s = 0.0, encode_s = 0.0;
  std::size_t blob_max = 0, embed_iterations = 0;
  // Pooled by period index across hosts, for the length-growth ratio.
  const std::size_t tenth = std::max<std::size_t>(1, periods_ / 10);
  std::vector<double> first_tenth, last_tenth;
  for (const auto& h : hosts_) {
    tick_us.insert(tick_us.end(), h->tick_us.begin(), h->tick_us.end());
    period_us.insert(period_us.end(), h->period_us.begin(),
                     h->period_us.end());
    encode_us.insert(encode_us.end(), h->encode_us.begin(),
                     h->encode_us.end());
    restore_us.insert(restore_us.end(), h->restore_us.begin(),
                      h->restore_us.end());
    for (std::size_t p = 0; p < h->tick_us.size(); ++p) {
      if (p < tenth) first_tenth.push_back(h->tick_us[p]);
      if (p + tenth >= h->tick_us.size()) last_tenth.push_back(h->tick_us[p]);
    }
    sim_s += h->sim_s;
    core_s += h->core_s;
    encode_s += h->encode_s;
    blob_max = std::max(blob_max, h->blob_max);
    if (const core::StayAwayMapper* m = h->pipeline->stay_away_mapper()) {
      embed_iterations += m->embedder().total_iterations();
    }
  }
  // Shares of the traced run's driving capacity: worker threads x wall.
  const double capacity = static_cast<double>(workers_) * wall_s_;
  const double period_s = fleet_.hosts.front().experiment.period_s;

  std::vector<Metric> m;
  auto pct = [&m](const std::string& name, const std::vector<double>& v,
                  double q) {
    m.push_back({name, percentile(v, q), "us", v.size()});
  };
  auto count = [&m](const std::string& name, std::size_t n) {
    m.push_back({name, static_cast<double>(n), "count", 0});
  };
  auto share = [&m, capacity](const std::string& name, double s) {
    m.push_back({name, capacity > 0.0 ? s / capacity : 0.0, "fraction", 0});
  };

  // sim / apps / trace
  pct("sim.tick_us.p50", tick_us, 0.50);
  pct("sim.tick_us.p99", tick_us, 0.99);
  share("sim.busy_share", sim_s);
  m.push_back({"sim.tick_us.growth",
               mean(first_tenth) > 0.0 ? mean(last_tenth) / mean(first_tenth)
                                       : 0.0,
               "ratio", first_tenth.size() + last_tenth.size()});
  for (const char* mix : {"mem", "mix", "cpu"}) {
    std::uint64_t hits = 0, misses = 0;
    for (const auto& h : hosts_) {
      if (fleet_.hosts[h->index].name == mix && h->rig.webservice != nullptr) {
        hits = h->rig.webservice->cache().hits();
        misses = h->rig.webservice->cache().misses();
      }
    }
    count(std::string("apps.cache.lookups.") + mix, hits + misses);
    m.push_back({std::string("apps.cache.hit_ratio.") + mix,
                 hits + misses > 0 ? static_cast<double>(hits) /
                                         static_cast<double>(hits + misses)
                                   : 0.0,
                 "fraction", 0});
  }

  // core pipeline
  pct("core.period_us.p50", period_us, 0.50);
  pct("core.period_us.p99", period_us, 0.99);
  share("core.busy_share", core_s);
  std::vector<obs::MetricsSnapshot> snaps;
  for (const auto& h : hosts_) snaps.push_back(h->observer.metrics().snapshot());
  for (const char* stage : {"sample", "embed", "predict", "act"}) {
    // Every host's span histogram has the same bounds; add them up.
    const std::string name = std::string("span.") + stage + ".us";
    obs::HistogramSnapshot h;
    for (const obs::MetricsSnapshot& snap : snaps) {
      for (const obs::HistogramSnapshot& s : snap.histograms) {
        if (s.name != name) continue;
        if (h.buckets.empty()) {
          h = s;
          continue;
        }
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
          h.buckets[i] += s.buckets[i];
        }
        h.count += s.count;
      }
    }
    for (auto [suffix, q] : {std::pair{"p50", 0.50}, std::pair{"p99", 0.99}}) {
      m.push_back({std::string("core.") + stage + "_us." + suffix,
                   bucket_percentile(h, q), "us",
                   static_cast<std::size_t>(h.count)});
    }
  }
  m.push_back({"core.cpu_share_pct", mean(period_us) / (period_s * 1e6) * 100.0,
               "%", period_us.size()});
  count("mds.embed_iterations", embed_iterations);

  // core/cluster
  pct("cluster.step_us.p50", step_us_, 0.50);
  pct("cluster.step_us.p99", step_us_, 0.99);
  share("cluster.busy_share", step_s_);

  // core/checkpoint and the supervisor
  pct("checkpoint.encode_us.p50", encode_us, 0.50);
  pct("checkpoint.encode_us.p99", encode_us, 0.99);
  pct("checkpoint.restore_us.p50", restore_us, 0.50);
  share("checkpoint.encode_share", encode_s);
  m.push_back({"checkpoint.bytes.max", static_cast<double>(blob_max), "bytes",
               encode_us.size()});
  return m;
}

}  // namespace

TracedRun run_traced(const harness::FleetSpec& fleet) {
  return TracedFleet(fleet).run();
}

}  // namespace perfbench
