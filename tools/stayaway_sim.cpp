// stayaway_sim — run a co-location scenario from a description file.
//
//   stayaway_sim scenario.conf
//   stayaway_sim - < scenario.conf        (read from stdin)
//   stayaway_sim --example                (print a template scenario)
//
// Observability (optional, attached to the primary run only):
//   --events-out FILE    JSONL event stream (periods, decisions, spans,
//                        pause/resume transitions)
//   --metrics-out FILE   JSON metrics summary (counters/gauges/histograms)
//
// Fault injection (DESIGN.md §12):
//   --faults FILE        deterministic fault plan applied to the primary
//                        run (overrides the scenario's `fault =` lines);
//                        format: `seed = 7` plus repeatable `fault =`
//                        lines, see src/sim/faults.hpp
//
// Multi-host fleets (DESIGN.md §13):
//   --hosts N            replicate a plain scenario across N hosts with
//                        decorrelated per-host seeds and run them as a
//                        fleet; alternatively give the scenario file
//                        [host "name"] sections (see
//                        src/harness/scenario_file.hpp)
//   --workers N          drive fleet hosts on N concurrent workers
//                        (overrides the scenario's `workers` key)
//
// Record/replay (DESIGN.md §14):
//   --record FILE        run the scenario (plus --hosts/--workers) with a
//                        recorder attached and save the versioned run-log
//                        (canonical scenario + per-host PeriodRecord
//                        streams) to FILE
//   --replay FILE        re-execute a saved run-log and byte-diff every
//                        PeriodRecord against the recording; exits 1 on
//                        any divergence (no scenario argument)
//
// Fault tolerance (DESIGN.md §17):
//   --supervise          run every host under the crash supervisor (hosts
//                        whose fault plan injects crash faults are
//                        supervised automatically)
//   --checkpoint-every N supervisor checkpoint cadence in periods
//   --checkpoint-dir D   write each host's end-of-run checkpoint to
//                        D/<host>.ckpt (plus D/coordinator.ckpt on
//                        coordinated runs)
//   --restore D          warm-start each host from D/<host>.ckpt when the
//                        file exists (hosts without one start cold; a
//                        coordinated run also reads D/coordinator.ckpt)
//
// Cluster coordination (DESIGN.md §18):
//   --cluster on|off     force the scenario's [cluster] section on
//                        (requires one) or strip it — the coordinator-off
//                        fleet is byte-identical to an uncoordinated run
//   --migrate on|off     override the [cluster] `migrate` knob: off keeps
//                        admission control but never opens migration
//                        gates, so violating hosts pause instead
//
// The scenario format is documented in src/harness/scenario_file.hpp.
// Prints the QoS/utilization summary (and the full comparison when
// `compare = true`), optionally saving the per-period series as CSV and
// importing/exporting Stay-Away templates. Fleet runs print one summary
// row per host; `compare`, templates, series CSV and --faults are
// single-host features.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "core/template_store.hpp"
#include "harness/fleet.hpp"
#include "harness/report.hpp"
#include "harness/scenario_file.hpp"
#include "obs/events.hpp"
#include "obs/observer.hpp"
#include "replay/replay.hpp"
#include "replay/run_log.hpp"
#include "sim/faults.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace {

constexpr const char* kExample = R"(# stayaway_sim scenario
sensitive    = vlc-stream        # vlc-stream | webservice-cpu|mem|mix | vlc-transcode
batch        = twitter-analysis  # cpubomb | membomb | soplex | twitter-analysis
                                 # | vlc-transcode | batch-1 | batch-2 | none
policy       = stay-away         # stay-away | no-prevention | reactive | static-threshold
duration_s   = 300
batch_start_s = 15
workload     = diurnal           # constant | diurnal
compare      = true              # also run no-prevention + isolated references
# template_in  = previous.template.csv
# template_out = learned.template.csv
# series_csv   = run_series.csv
#
# Multi-host fleet: the keys above become the base every host inherits;
# [host "name"] sections overlay it (scalars override, vm/fault append).
# workers = 4
# [host "web-a"]
# batch = twitter-analysis
# [host "web-b"]
# batch = cpubomb
# seed  = 7
)";

constexpr const char* kUsage =
    "usage: stayaway_sim [--events-out FILE] [--metrics-out FILE]\n"
    "                    [--faults FILE] [--hosts N] [--workers N]\n"
    "                    [--ingest-rate HZ] [--record FILE]\n"
    "                    [--supervise] [--checkpoint-every N]\n"
    "                    [--checkpoint-dir DIR] [--restore DIR]\n"
    "                    [--cluster on|off] [--migrate on|off]\n"
    "                    <scenario-file | - | --example>\n"
    "       stayaway_sim --replay FILE\n";

struct Options {
  std::string scenario;
  std::optional<std::string> events_out;
  std::optional<std::string> metrics_out;
  std::optional<std::string> faults;
  std::optional<std::string> record;
  std::optional<std::string> replay;
  std::size_t hosts = 0;    // 0 = no replication requested
  std::size_t workers = 0;  // 0 = take the scenario's `workers` key
  /// Set: override every host to ring ingestion at this rate (DESIGN.md
  /// §15) — equivalent to `ingest_source = ring` + `ingest_rate_hz`.
  std::optional<double> ingest_rate;
  // --- Fault tolerance (DESIGN.md §17). -------------------------------
  bool supervise = false;
  std::size_t checkpoint_every = 0;
  std::optional<std::string> checkpoint_dir;
  std::optional<std::string> restore_dir;
  // --- Cluster coordination (DESIGN.md §18). --------------------------
  /// --cluster on|off: force/strip the scenario's [cluster] section.
  std::optional<bool> cluster_on;
  /// --migrate on|off: override the [cluster] `migrate` knob.
  std::optional<bool> migrate_on;

  bool recovery_requested() const {
    return supervise || checkpoint_every != 0 ||
           checkpoint_dir.has_value() || restore_dir.has_value();
  }
};

std::string checkpoint_path(const std::string& dir, const std::string& host) {
  return dir + "/" + host + ".ckpt";
}

int run_single(stayaway::harness::Scenario scenario, const Options& opts) {
  using namespace stayaway;
  using namespace stayaway::harness;

  if (opts.faults.has_value()) {
    std::ifstream fin(*opts.faults);
    SA_REQUIRE(fin.good(), "cannot open fault plan: " + *opts.faults);
    scenario.spec.faults = sim::parse_fault_plan(fin);
    std::cout << "fault plan loaded: " << *opts.faults << " ("
              << scenario.spec.faults->faults.size() << " faults, seed "
              << scenario.spec.faults->seed << ")\n";
  }
  if (scenario.template_in.has_value()) {
    std::ifstream tin(*scenario.template_in);
    SA_REQUIRE(tin.good(), "cannot open template: " + *scenario.template_in);
    scenario.spec.seed_template = core::StateTemplate::load(tin);
    std::cout << "template loaded: " << *scenario.template_in << " ("
              << scenario.spec.seed_template->entries.size() << " states)\n";
  }

  // Observability attaches to the primary run only; the compare/isolated
  // reference runs stay unobserved so their series are not interleaved
  // into the event stream.
  std::ofstream events_file;
  std::optional<obs::JsonlSink> sink;
  std::optional<obs::Observer> observer;
  if (opts.events_out.has_value() || opts.metrics_out.has_value()) {
    observer.emplace();
    if (opts.events_out.has_value()) {
      events_file.open(*opts.events_out);
      SA_REQUIRE(events_file.good(), "cannot write: " + *opts.events_out);
      sink.emplace(events_file);
      observer->set_sink(&*sink);
    }
    scenario.spec.observer = &*observer;
  }

  std::cout << "running: " << to_string(scenario.spec.sensitive) << " + "
            << to_string(scenario.spec.batch) << " under "
            << to_string(scenario.spec.policy) << ", "
            << scenario.spec.duration_s << " s\n\n";
  ExperimentResult result = run_experiment(scenario.spec);
  scenario.spec.observer = nullptr;

  if (scenario.spec.faults.has_value() && !scenario.spec.faults->empty()) {
    std::cout << "faults: " << result.readings_quarantined
              << " readings quarantined, " << result.degraded_periods
              << " degraded + " << result.failsafe_periods
              << " failsafe periods, " << result.actuation_retries
              << " actuation retries (" << result.actuation_abandoned
              << " abandoned)\n\n";
  }

  if (observer.has_value()) {
    observer->flush();
    if (sink.has_value()) {
      std::cout << "events written: " << *opts.events_out << " ("
                << sink->emitted() << " events)\n";
    }
    if (opts.metrics_out.has_value()) {
      std::ofstream mout(*opts.metrics_out);
      SA_REQUIRE(mout.good(), "cannot write: " + *opts.metrics_out);
      observer->metrics().write_json(mout);
      std::cout << "metrics written: " << *opts.metrics_out << "\n";
    }
    std::cout << "\n";
    print_metrics_summary(std::cout, observer->metrics());
    std::cout << "\n";
  }

  print_summary_header(std::cout);
  print_summary_row(std::cout, to_string(scenario.spec.policy), result);

  if (scenario.compare) {
    ExperimentSpec np = scenario.spec;
    np.policy = PolicyKind::NoPrevention;
    np.seed_template.reset();
    ExperimentResult no_prev = run_experiment(np);
    ExperimentResult isolated = run_isolated(scenario.spec);
    print_summary_row(std::cout, "no-prevention", no_prev);
    print_summary_row(std::cout, "isolated", isolated);

    double gain = series_mean(gained_utilization(result, isolated));
    double max_gain = series_mean(gained_utilization(no_prev, isolated));
    std::cout << "\n"
              << render_qos_figure("normalized QoS (1.0 = threshold)", result,
                                   no_prev)
              << "\ngained utilization: " << format_double(gain * 100.0, 1)
              << "% of a possible " << format_double(max_gain * 100.0, 1)
              << "%\n";
  }

  if (scenario.series_csv.has_value()) {
    std::ofstream csv(*scenario.series_csv);
    SA_REQUIRE(csv.good(), "cannot write: " + *scenario.series_csv);
    std::vector<double> violated(result.violated.begin(),
                                 result.violated.end());
    std::vector<double> running(result.batch_running.begin(),
                                result.batch_running.end());
    print_series_csv(csv, {"time", "qos", "violated", "utilization",
                           "batch_running"},
                     {&result.time, &result.qos, &violated,
                      &result.utilization, &running});
    std::cout << "series written: " << *scenario.series_csv << "\n";
  }

  if (scenario.template_out.has_value()) {
    SA_REQUIRE(result.exported_template.has_value(),
               "template_out requires policy = stay-away");
    std::ofstream tout(*scenario.template_out);
    SA_REQUIRE(tout.good(), "cannot write: " + *scenario.template_out);
    result.exported_template->save(tout);
    std::cout << "template written: " << *scenario.template_out << " ("
              << result.exported_template->entries.size() << " states, "
              << result.exported_template->violation_count()
              << " violations)\n";
  }
  return 0;
}

/// Rejects the single-host-only scenario features in fleet mode, naming
/// the offending section.
void require_fleet_compatible(const stayaway::harness::Scenario& scenario,
                              const std::string& where) {
  SA_REQUIRE(!scenario.compare,
             where + ": `compare` is unsupported in fleet mode");
  SA_REQUIRE(!scenario.template_in.has_value() &&
                 !scenario.template_out.has_value(),
             where + ": templates are unsupported in fleet mode");
  SA_REQUIRE(!scenario.series_csv.has_value(),
             where + ": `series_csv` is unsupported in fleet mode");
}

int run_fleet_mode(const stayaway::harness::FleetScenario& doc,
                   const Options& opts) {
  using namespace stayaway;
  using namespace stayaway::harness;

  SA_REQUIRE(!opts.faults.has_value(),
             "--faults applies to single-host runs; use per-host "
             "`fault =` lines in the scenario");
  SA_REQUIRE(opts.hosts == 0 || doc.hosts.empty(),
             "--hosts replicates a plain scenario; this file already "
             "defines [host] sections");
  require_fleet_compatible(doc.base, "base scenario");

  FleetSpec fleet;
  std::size_t workers = opts.workers != 0 ? opts.workers : doc.workers;
  if (!doc.hosts.empty()) {
    fleet.workers = workers;
    for (const auto& [name, scenario] : doc.hosts) {
      require_fleet_compatible(scenario, "[host \"" + name + "\"]");
      fleet.hosts.push_back({name, scenario.spec});
    }
  } else if (opts.hosts == 0) {
    // A plain document on the fleet path (the recovery flags put it
    // there) is the single-host run: one host, the scenario's own seed.
    fleet.workers = workers;
    fleet.hosts.push_back({"host0", doc.base.spec});
  } else {
    fleet = replicate_fleet(doc.base.spec, opts.hosts, doc.base.spec.seed,
                            workers);
  }
  fleet.cluster = doc.cluster;

  fleet.supervise = opts.supervise;
  fleet.checkpoint_every = opts.checkpoint_every;
  fleet.export_checkpoints = opts.checkpoint_dir.has_value();
  if (opts.restore_dir.has_value()) {
    for (const FleetHostSpec& host : fleet.hosts) {
      std::string path = checkpoint_path(*opts.restore_dir, host.name);
      std::ifstream ckpt(path, std::ios::binary);
      if (!ckpt.good()) continue;  // no checkpoint: this host starts cold
      std::ostringstream blob;
      blob << ckpt.rdbuf();
      fleet.restore[host.name] = blob.str();
      std::cout << "restoring " << host.name << " from " << path << "\n";
    }
    if (fleet.cluster.has_value()) {
      std::string path = *opts.restore_dir + "/coordinator.ckpt";
      std::ifstream ckpt(path, std::ios::binary);
      if (ckpt.good()) {
        std::ostringstream blob;
        blob << ckpt.rdbuf();
        fleet.cluster->restore = blob.str();
        std::cout << "restoring coordinator from " << path << "\n";
      }
    }
  }

  std::ofstream events_file;
  std::optional<obs::JsonlSink> sink;
  std::optional<obs::Observer> observer;
  if (opts.events_out.has_value() || opts.metrics_out.has_value()) {
    observer.emplace();
    if (opts.events_out.has_value()) {
      events_file.open(*opts.events_out);
      SA_REQUIRE(events_file.good(), "cannot write: " + *opts.events_out);
      sink.emplace(events_file);
      observer->set_sink(&*sink);
    }
    fleet.observer = &*observer;
  }

  std::cout << "running fleet: " << fleet.hosts.size() << " hosts, "
            << fleet.workers << " worker" << (fleet.workers == 1 ? "" : "s");
  if (fleet.cluster.has_value()) {
    std::cout << ", coordinated (migrate "
              << (fleet.cluster->config.migrate ? "on" : "off") << ", "
              << fleet.cluster->mobile.size() << " mobile, "
              << fleet.cluster->admissions.size() << " incoming)";
  }
  std::cout << "\n";
  for (const FleetHostSpec& host : fleet.hosts) {
    std::cout << "  " << host.name << ": "
              << to_string(host.experiment.sensitive) << " + "
              << to_string(host.experiment.batch) << " under "
              << to_string(host.experiment.policy) << ", "
              << host.experiment.duration_s << " s (seed "
              << host.experiment.seed << ")\n";
  }
  std::cout << "\n";

  FleetResult result = run_fleet(fleet);

  for (std::size_t i = 0; i < result.hosts.size(); ++i) {
    const FleetHostResult& host = result.hosts[i];
    const ExperimentSpec& spec = fleet.hosts[i].experiment;
    if (host.recovery.any_failures()) {
      std::cout << "recovery[" << host.name << "]: "
                << host.recovery.crashes << " crashes, "
                << host.recovery.stage_throws << " stage throws, "
                << host.recovery.stalls << " stalls ("
                << host.recovery.watchdog_trips << " watchdog trips), "
                << host.recovery.recoveries << " recoveries ("
                << host.recovery.cold_starts << " cold starts), "
                << host.recovery.gap_periods_replayed
                << " gap periods replayed, " << host.recovery.divergences
                << " divergences\n";
    }
    if (spec.faults.has_value() && !spec.faults->empty()) {
      std::cout << "faults[" << host.name << "]: "
                << host.result.readings_quarantined
                << " readings quarantined, " << host.result.degraded_periods
                << " degraded + " << host.result.failsafe_periods
                << " failsafe periods, " << host.result.actuation_retries
                << " actuation retries (" << host.result.actuation_abandoned
                << " abandoned)\n";
    }
  }

  if (result.cluster.has_value()) {
    const ClusterReport& cluster = *result.cluster;
    std::cout << "cluster: " << cluster.migrations << " migration"
              << (cluster.migrations == 1 ? "" : "s") << ", "
              << cluster.admitted << " admitted, " << cluster.rejected
              << " rejected, " << cluster.queued << " still queued\n";
    for (const std::string& event : cluster.events) {
      std::cout << "  " << event << "\n";
    }
  }

  if (opts.checkpoint_dir.has_value()) {
    std::error_code ec;
    std::filesystem::create_directories(*opts.checkpoint_dir, ec);
    SA_REQUIRE(!ec, "cannot create checkpoint dir: " + *opts.checkpoint_dir);
    for (const FleetHostResult& host : result.hosts) {
      std::string path = checkpoint_path(*opts.checkpoint_dir, host.name);
      std::ofstream out(path, std::ios::binary);
      SA_REQUIRE(out.good(), "cannot write checkpoint: " + path);
      out.write(host.final_checkpoint.data(),
                static_cast<std::streamsize>(host.final_checkpoint.size()));
      out.flush();
      SA_REQUIRE(out.good(), "failed writing checkpoint: " + path);
    }
    std::cout << "checkpoints written: " << *opts.checkpoint_dir << " ("
              << result.hosts.size() << " of " << result.hosts.size()
              << " hosts)\n";
    if (result.cluster.has_value() &&
        !result.cluster->final_coordinator.empty()) {
      std::string path = *opts.checkpoint_dir + "/coordinator.ckpt";
      std::ofstream out(path, std::ios::binary);
      SA_REQUIRE(out.good(), "cannot write checkpoint: " + path);
      const std::string& blob = result.cluster->final_coordinator;
      out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
      out.flush();
      SA_REQUIRE(out.good(), "failed writing checkpoint: " + path);
      std::cout << "coordinator checkpoint written: " << path << "\n";
    }
  }

  if (observer.has_value()) {
    observer->flush();
    if (sink.has_value()) {
      std::cout << "events written: " << *opts.events_out << " ("
                << sink->emitted() << " events)\n";
    }
    if (opts.metrics_out.has_value()) {
      std::ofstream mout(*opts.metrics_out);
      SA_REQUIRE(mout.good(), "cannot write: " + *opts.metrics_out);
      observer->metrics().write_json(mout);
      std::cout << "metrics written: " << *opts.metrics_out << "\n";
    }
    std::cout << "\n";
    print_metrics_summary(std::cout, observer->metrics());
  }

  std::cout << "\n";
  print_summary_header(std::cout);
  for (const FleetHostResult& host : result.hosts) {
    print_summary_row(std::cout, host.name, host.result);
  }
  return 0;
}

int run_record_mode(const stayaway::harness::FleetScenario& doc,
                    const Options& opts) {
  using namespace stayaway;
  using namespace stayaway::harness;

  SA_REQUIRE(!opts.faults.has_value(),
             "--record captures the scenario's own `fault =` lines; "
             "--faults is unsupported");
  SA_REQUIRE(!opts.events_out.has_value() && !opts.metrics_out.has_value(),
             "--record runs unobserved; drop --events-out/--metrics-out");
  SA_REQUIRE(!opts.recovery_requested(),
             "--record supervises hosts with crash faults automatically; "
             "drop --supervise/--checkpoint-*/--restore");
  SA_REQUIRE(opts.hosts == 0 || doc.hosts.empty(),
             "--hosts replicates a plain scenario; this file already "
             "defines [host] sections");
  require_fleet_compatible(doc.base, "base scenario");
  for (const auto& [name, scenario] : doc.hosts) {
    require_fleet_compatible(scenario, "[host \"" + name + "\"]");
  }

  FleetScenario canonical = doc;
  if (opts.workers != 0) canonical.workers = opts.workers;
  canonical = replay::canonical_fleet(canonical, opts.hosts);

  replay::RecordedRun run = replay::record_run(canonical);
  replay::save_run_log(run.log, *opts.record);

  std::size_t periods = 0;
  for (const auto& host : run.log.hosts) periods += host.records.size();
  std::cout << "recorded: " << *opts.record << " (" << run.log.hosts.size()
            << " host" << (run.log.hosts.size() == 1 ? "" : "s") << ", "
            << periods << " periods";
  if (!run.log.cluster_events.empty()) {
    std::cout << ", " << run.log.cluster_events.size() << " cluster events";
  }
  std::cout << ")\n\n";
  if (run.result.cluster.has_value()) {
    const ClusterReport& cluster = *run.result.cluster;
    std::cout << "cluster: " << cluster.migrations << " migration"
              << (cluster.migrations == 1 ? "" : "s") << ", "
              << cluster.admitted << " admitted, " << cluster.rejected
              << " rejected, " << cluster.queued << " still queued\n\n";
  }
  print_summary_header(std::cout);
  for (const FleetHostResult& host : run.result.hosts) {
    print_summary_row(std::cout, host.name, host.result);
  }
  return 0;
}

int run_replay_mode(const Options& opts) {
  using namespace stayaway;

  replay::RunLog log = replay::load_run_log(*opts.replay);
  replay::ReplayReport report = replay::replay_run_log(log);
  if (!report.error.empty()) {
    std::cerr << "replay error: " << report.error << "\n";
    return 1;
  }
  if (report.ok) {
    std::cout << "replay ok: " << *opts.replay << " ("
              << report.periods_checked << " periods byte-identical across "
              << log.hosts.size() << " host"
              << (log.hosts.size() == 1 ? "" : "s") << ")\n";
    return 0;
  }
  std::cerr << "replay DIVERGED: " << *opts.replay << " ("
            << report.mismatches.size() << " mismatch"
            << (report.mismatches.size() == 1 ? "" : "es") << " shown, "
            << report.periods_checked << " periods checked)\n";
  for (const replay::ReplayMismatch& m : report.mismatches) {
    std::cerr << "  [" << m.host << " period " << m.period << "]\n"
              << "    recorded: "
              << (m.recorded.empty() ? "<missing>" : m.recorded) << "\n"
              << "    replayed: "
              << (m.replayed.empty() ? "<missing>" : m.replayed) << "\n";
  }
  return 1;
}

int run(std::istream& in, const Options& opts) {
  using namespace stayaway::harness;

  FleetScenario doc = parse_fleet_scenario(in);
  if (opts.ingest_rate.has_value()) {
    auto to_ring = [&opts](Scenario& s) {
      s.spec.stayaway.ingest.source = stayaway::core::IngestSource::Ring;
      s.spec.stayaway.ingest.rate_hz = *opts.ingest_rate;
    };
    to_ring(doc.base);
    for (auto& [name, scenario] : doc.hosts) {
      (void)name;
      to_ring(scenario);
    }
  }
  if (opts.cluster_on.has_value()) {
    if (*opts.cluster_on) {
      SA_REQUIRE(doc.cluster.has_value(),
                 "--cluster on needs a [cluster] section in the scenario");
    } else {
      doc.cluster.reset();
    }
  }
  if (opts.migrate_on.has_value()) {
    SA_REQUIRE(doc.cluster.has_value(),
               "--migrate needs an active [cluster] section");
    doc.cluster->config.migrate = *opts.migrate_on;
  }
  if (opts.record.has_value()) return run_record_mode(doc, opts);
  // Plain documents without --hosts keep the historical single-host path
  // (and its exact output) — fleet mode is strictly opt-in, except that
  // the recovery flags always ride the fleet path (a fleet of one replays
  // the single-host run byte-for-byte).
  if (doc.hosts.empty() && opts.hosts == 0) {
    if (opts.recovery_requested()) return run_fleet_mode(doc, opts);
    SA_REQUIRE(opts.workers == 0,
               "--workers needs a fleet (--hosts N or [host] sections)");
    return run_single(doc.base, opts);
  }
  return run_fleet_mode(doc, opts);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool have_scenario = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--example") {
      std::cout << kExample;
      return 0;
    }
    if (arg == "--supervise") {
      opts.supervise = true;
      continue;
    }
    if (arg == "--cluster" || arg == "--migrate") {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " needs on|off\n" << kUsage;
        return 2;
      }
      std::string value = argv[++i];
      if (value != "on" && value != "off") {
        std::cerr << "error: " << arg << " needs on|off, got '" << value
                  << "'\n"
                  << kUsage;
        return 2;
      }
      (arg == "--cluster" ? opts.cluster_on : opts.migrate_on) =
          (value == "on");
      continue;
    }
    if (arg == "--events-out" || arg == "--metrics-out" || arg == "--faults" ||
        arg == "--record" || arg == "--replay" || arg == "--hosts" ||
        arg == "--workers" || arg == "--ingest-rate" ||
        arg == "--checkpoint-every" || arg == "--checkpoint-dir" ||
        arg == "--restore") {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " needs an argument\n" << kUsage;
        return 2;
      }
      ++i;
      if (arg == "--events-out") {
        opts.events_out = argv[i];
      } else if (arg == "--metrics-out") {
        opts.metrics_out = argv[i];
      } else if (arg == "--faults") {
        opts.faults = argv[i];
      } else if (arg == "--record") {
        opts.record = argv[i];
      } else if (arg == "--replay") {
        opts.replay = argv[i];
      } else if (arg == "--checkpoint-dir") {
        opts.checkpoint_dir = argv[i];
      } else if (arg == "--restore") {
        opts.restore_dir = argv[i];
      } else if (arg == "--checkpoint-every") {
        char* end = nullptr;
        long n = std::strtol(argv[i], &end, 10);
        if (end == nullptr || *end != '\0' || n < 1) {
          std::cerr << "error: --checkpoint-every needs a positive integer\n"
                    << kUsage;
          return 2;
        }
        opts.checkpoint_every = static_cast<std::size_t>(n);
      } else if (arg == "--ingest-rate") {
        char* end = nullptr;
        double hz = std::strtod(argv[i], &end);
        if (end == nullptr || *end != '\0' || !(hz > 0.0)) {
          std::cerr << "error: --ingest-rate needs a positive rate in Hz\n"
                    << kUsage;
          return 2;
        }
        opts.ingest_rate = hz;
      } else {
        char* end = nullptr;
        long n = std::strtol(argv[i], &end, 10);
        if (end == nullptr || *end != '\0' || n < 1) {
          std::cerr << "error: " << arg << " needs a positive integer\n"
                    << kUsage;
          return 2;
        }
        (arg == "--hosts" ? opts.hosts : opts.workers) =
            static_cast<std::size_t>(n);
      }
      continue;
    }
    if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::cerr << "error: unknown flag " << arg << "\n" << kUsage;
      return 2;
    }
    if (have_scenario) {
      std::cerr << "error: more than one scenario argument\n" << kUsage;
      return 2;
    }
    opts.scenario = arg;
    have_scenario = true;
  }
  if (opts.replay.has_value()) {
    if (have_scenario || opts.record.has_value() || opts.faults.has_value() ||
        opts.events_out.has_value() || opts.metrics_out.has_value() ||
        opts.hosts != 0 || opts.workers != 0 ||
        opts.ingest_rate.has_value() || opts.recovery_requested() ||
        opts.cluster_on.has_value() || opts.migrate_on.has_value()) {
      std::cerr << "error: --replay takes no scenario and no other flags\n"
                << kUsage;
      return 2;
    }
    try {
      return run_replay_mode(opts);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  if (!have_scenario) {
    std::cerr << kUsage;
    return 2;
  }
  try {
    if (opts.scenario == "-") return run(std::cin, opts);
    std::ifstream file(opts.scenario);
    if (!file.good()) {
      std::cerr << "error: cannot open " << opts.scenario << "\n";
      return 2;
    }
    return run(file, opts);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
